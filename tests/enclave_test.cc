// Tests for the enclave facade: address space, page manager reservations,
// commit/guard semantics, typed access, VM accounting.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/enclave/enclave.h"

namespace sgxb {
namespace {

EnclaveConfig SmallConfig() {
  EnclaveConfig cfg;
  cfg.space_bytes = 64 * kMiB;
  cfg.sim.epc_bytes = 8 * kMiB;
  return cfg;
}

TEST(EnclaveTest, StoreLoadRoundTrip) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint32_t base = e.pages().ReserveLow(kPageSize, "test");
  e.pages().Commit(&cpu, base, kPageSize);
  e.Store<uint64_t>(cpu, base + 8, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(e.Load<uint64_t>(cpu, base + 8), 0xdeadbeefcafef00dULL);
}

TEST(EnclaveTest, UncommittedAccessTraps) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint32_t base = e.pages().ReserveLow(kPageSize, "test");
  EXPECT_THROW(e.Load<uint32_t>(cpu, base), SimTrap);
  try {
    e.Load<uint32_t>(cpu, base);
    FAIL() << "expected trap";
  } catch (const SimTrap& t) {
    EXPECT_EQ(t.kind(), TrapKind::kSegFault);
  }
}

TEST(EnclaveTest, NullPageIsGuard) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  EXPECT_THROW(e.Load<uint32_t>(cpu, 0), SimTrap);
  EXPECT_THROW(e.Load<uint32_t>(cpu, 100), SimTrap);
}

TEST(EnclaveTest, TopPageIsGuard) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint32_t top = static_cast<uint32_t>(e.config().space_bytes - 8);
  EXPECT_THROW(e.Load<uint32_t>(cpu, top), SimTrap);
}

// An address far past a small space indexes the per-page tables in bounds
// (they span the whole 32-bit range) and reads unaddressable: every access
// traps as a segfault with a message, and so does committing that page.
TEST(EnclaveTest, AddressPastTheSpaceTraps) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  constexpr uint32_t kPast = 0xF0000000;
  const auto expect_segfault = [](const auto& access, const char* what) {
    try {
      access();
      ADD_FAILURE() << what << ": expected a trap";
    } catch (const SimTrap& t) {
      EXPECT_EQ(t.kind(), TrapKind::kSegFault) << what;
      EXPECT_NE(std::string(t.what()), "") << what;
    }
  };
  expect_segfault([&] { e.Load<uint8_t>(cpu, kPast); }, "load");
  expect_segfault([&] { e.Store<uint32_t>(cpu, kPast, 1); }, "store");
  uint8_t buf[16];
  expect_segfault([&] { e.LoadBytes(cpu, kPast, buf, sizeof(buf)); }, "LoadBytes");
  expect_segfault([&] { e.pages().Commit(&cpu, kPast, 1); }, "commit");
  // The first page past the space, and a range that runs into it.
  const uint32_t end = static_cast<uint32_t>(e.config().space_bytes);
  expect_segfault([&] { e.pages().Commit(&cpu, end, 1); }, "commit at the end");
  expect_segfault([&] { e.pages().Commit(&cpu, end - kPageSize, 2 * kPageSize); },
                  "commit across the end");
  EXPECT_FALSE(e.pages().Committed(end - kPageSize));
}

// The host mapping behind a space ends in a guard page: a host read of the
// byte past the space faults, where it used to read whatever was mapped
// next. The last byte of the space reads as usual.
TEST(AddressSpaceDeathTest, HostReadPastTheSpaceFaults) {
  AddressSpace space(64 * kMiB);
  EXPECT_EQ(*space.HostPtr(64 * kMiB - 1), 0u);
  EXPECT_DEATH(
      {
        const volatile uint8_t* past = space.HostPtr(64 * kMiB);
        std::printf("%u\n", static_cast<unsigned>(*past));
      },
      "");
}

TEST(EnclaveTest, AccessSpanningGuardPageTraps) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint32_t base = e.pages().ReserveLow(3 * kPageSize, "test");
  e.pages().Commit(&cpu, base, 3 * kPageSize);
  e.pages().SetGuardPage(PageOf(base) + 1);
  // A large access spanning the guard page in the middle must trap.
  uint8_t buf[2 * kPageSize + 16];
  EXPECT_THROW(e.LoadBytes(cpu, base, buf, sizeof(buf)), SimTrap);
}

TEST(EnclaveTest, CommittedPagesAreZeroed) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint32_t base = e.pages().ReserveLow(kPageSize, "test");
  e.pages().Commit(&cpu, base, kPageSize);
  e.Store<uint32_t>(cpu, base, 42);
  e.pages().Decommit(base, kPageSize);
  e.pages().Commit(&cpu, base, kPageSize);
  EXPECT_EQ(e.Load<uint32_t>(cpu, base), 0u);
}

TEST(EnclaveTest, CommitChargesMinorFaultsOnce) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint32_t base = e.pages().ReserveLow(4 * kPageSize, "test");
  e.pages().Commit(&cpu, base, 4 * kPageSize);
  EXPECT_EQ(cpu.counters().minor_faults, 4u);
  e.pages().Commit(&cpu, base, 4 * kPageSize);  // idempotent
  EXPECT_EQ(cpu.counters().minor_faults, 4u);
}

TEST(EnclaveTest, VmAccountingFullVsOnCommit) {
  Enclave e(SmallConfig());
  Cpu& cpu = e.main_cpu();
  const uint64_t vm0 = e.pages().vm_bytes();
  const uint32_t lazy = e.pages().ReserveLow(8 * kPageSize, "heap", VmAccounting::kOnCommit);
  EXPECT_EQ(e.pages().vm_bytes(), vm0);  // nothing committed yet
  e.pages().Commit(&cpu, lazy, 2 * kPageSize);
  EXPECT_EQ(e.pages().vm_bytes(), vm0 + 2 * kPageSize);
  e.pages().ReserveHigh(16 * kPageSize, "shadow", VmAccounting::kFull);
  EXPECT_EQ(e.pages().vm_bytes(), vm0 + 2 * kPageSize + 16 * kPageSize);
  EXPECT_GE(e.PeakVirtualBytes(), e.pages().vm_bytes());
}

// The per-page accounting table reads 0 for pages no region covers, and 0
// must mean kOnCommit: a raw commit there grows VM page by page.
TEST(EnclaveTest, PageOutsideEveryRegionCountsOnCommit) {
  Enclave e(SmallConfig());
  const uint32_t outside = static_cast<uint32_t>(e.config().space_bytes / 2);
  ASSERT_FALSE(e.pages().Committed(outside));
  const uint64_t vm0 = e.pages().vm_bytes();
  e.pages().Commit(nullptr, outside, 2 * kPageSize);
  EXPECT_EQ(e.pages().vm_bytes(), vm0 + 2 * kPageSize);
  EXPECT_TRUE(e.pages().Committed(outside + kPageSize));
  e.pages().Decommit(outside, 2 * kPageSize);
  EXPECT_EQ(e.pages().vm_bytes(), vm0);
}

// Carve writes the accounting table only for kFull regions; the kOnCommit
// region between two kFull neighbours must still count page by page, and
// its neighbours not at all, when one commit spans all three.
TEST(EnclaveTest, OnCommitRegionBetweenFullRegionsAccountsBoth) {
  Enclave e(SmallConfig());
  const uint64_t vm0 = e.pages().vm_bytes();
  const uint32_t below = e.pages().ReserveLow(2 * kPageSize, "below", VmAccounting::kFull);
  const uint32_t lazy = e.pages().ReserveLow(4 * kPageSize, "lazy", VmAccounting::kOnCommit);
  const uint32_t above = e.pages().ReserveLow(2 * kPageSize, "above", VmAccounting::kFull);
  ASSERT_EQ(lazy, below + 2 * kPageSize);
  ASSERT_EQ(above, lazy + 4 * kPageSize);
  EXPECT_EQ(e.pages().vm_bytes(), vm0 + 4 * kPageSize);  // the two kFull regions
  e.pages().Commit(nullptr, below, 8 * kPageSize);
  EXPECT_EQ(e.pages().vm_bytes(), vm0 + 8 * kPageSize);  // + the 4 lazy pages
  e.pages().Decommit(below, 8 * kPageSize);
  EXPECT_EQ(e.pages().vm_bytes(), vm0 + 4 * kPageSize);
  EXPECT_EQ(e.PeakVirtualBytes(), vm0 + 8 * kPageSize);
}

// The page tables and EPC nodes are mappings that start zero-filled; an
// enclave built after another one (possibly over recycled host memory) must
// see none of its commits, guards, accounting or EPC residency.
TEST(EnclaveTest, SuccessiveEnclavesShareNoPageState) {
  uint32_t heap = 0;
  uint32_t shadow = 0;
  for (int round = 0; round < 2; ++round) {
    Enclave e;  // full 4 GiB space: the largest tables
    Cpu& cpu = e.main_cpu();
    const uint32_t next_heap = e.pages().ReserveLow(16 * kPageSize, "heap");
    const uint32_t next_shadow = e.pages().ReserveHigh(16 * kPageSize, "shadow");
    if (round == 1) {
      // Same carve order, so the same addresses the first enclave used.
      ASSERT_EQ(next_heap, heap);
      ASSERT_EQ(next_shadow, shadow);
      EXPECT_FALSE(e.pages().Committed(heap));
      EXPECT_FALSE(e.pages().Addressable(heap));
      EXPECT_FALSE(e.pages().Committed(shadow));
      EXPECT_FALSE(e.memsys().epc().Resident(PageOf(heap)));
      EXPECT_EQ(e.memsys().epc().resident_pages(), 0u);
      EXPECT_EQ(e.pages().vm_bytes(), 16 * kPageSize);  // the kFull shadow only
      EXPECT_EQ(e.pages().committed_bytes(), 0u);
      EXPECT_THROW(e.Load<uint32_t>(cpu, heap), SimTrap);
    }
    heap = next_heap;
    shadow = next_shadow;
    e.pages().Commit(&cpu, heap, 16 * kPageSize);
    e.pages().Commit(&cpu, shadow, 16 * kPageSize);
    e.pages().SetGuardPage(PageOf(heap) + 3);
    for (uint32_t off = 0; off < 16 * kPageSize; off += kPageSize) {
      if (e.pages().Addressable(heap + off)) {
        e.Store<uint32_t>(cpu, heap + off, 0xabcdu);
      }
      e.Store<uint32_t>(cpu, shadow + off, 0x1234u);
    }
    EXPECT_GT(e.memsys().epc().resident_pages(), 0u);
  }
}

TEST(EnclaveTest, ReserveExhaustionTrapsOom) {
  Enclave e(SmallConfig());
  EXPECT_THROW(e.pages().ReserveLow(128 * kMiB, "too-big"), SimTrap);
  try {
    e.pages().ReserveHigh(128 * kMiB, "too-big");
    FAIL();
  } catch (const SimTrap& t) {
    EXPECT_EQ(t.kind(), TrapKind::kOutOfMemory);
  }
}

TEST(EnclaveTest, HighAndLowRegionsDoNotOverlap) {
  Enclave e(SmallConfig());
  const uint32_t low = e.pages().ReserveLow(kMiB, "low");
  const uint32_t high = e.pages().ReserveHigh(kMiB, "high");
  EXPECT_LT(low + kMiB, high);
}

TEST(EnclaveTest, ReservedForTagSums) {
  Enclave e(SmallConfig());
  e.pages().ReserveLow(kPageSize, "bt");
  e.pages().ReserveLow(kPageSize, "bt");
  e.pages().ReserveLow(kPageSize, "other");
  EXPECT_EQ(e.pages().ReservedForTag("bt"), 2u * kPageSize);
}

TEST(EnclaveTest, TotalCountersAggregatesAllCpus) {
  Enclave e(SmallConfig());
  Cpu& main = e.main_cpu();
  Cpu* extra = e.NewCpu();
  main.Alu(5);
  extra->Alu(7);
  EXPECT_EQ(e.TotalCounters().alu_ops, 12u);
}

TEST(EnclaveTest, PeekPokeBypassCharging) {
  Enclave e(SmallConfig());
  const uint32_t base = e.pages().ReserveLow(kPageSize, "test");
  e.pages().Commit(nullptr, base, kPageSize);
  e.Poke<uint32_t>(base, 7);
  EXPECT_EQ(e.Peek<uint32_t>(base), 7u);
  EXPECT_EQ(e.main_cpu().cycles(), 0u);
}

TEST(TrapTest, MessagesNameTheKind) {
  const SimTrap t(TrapKind::kSgxBoundsViolation, 0x1234, "test");
  EXPECT_NE(std::string(t.what()).find("SGXBOUNDS-VIOLATION"), std::string::npos);
  EXPECT_EQ(t.addr(), 0x1234u);
}

}  // namespace
}  // namespace sgxb
