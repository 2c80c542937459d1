// Tests for the AddressSanitizer baseline: shadow encoding, redzone
// detection, quarantine behaviour, memory blow-up characteristics.

#include <gtest/gtest.h>

#include <memory>

#include "src/asan/asan_runtime.h"

namespace sgxb {
namespace {

struct Fixture : public ::testing::Test {
  Fixture() {
    EnclaveConfig cfg;
    cfg.space_bytes = 256 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 64 * kMiB);
    AsanConfig config;
    config.quarantine_bytes = 1 * kMiB;  // small cap to exercise eviction
    asan = std::make_unique<AsanRuntime>(enclave.get(), heap.get(), config);
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<AsanRuntime> asan;
};

TEST_F(Fixture, ShadowReservationIsOneEighth) {
  EXPECT_EQ(enclave->pages().ReservedForTag("asan-shadow"),
            enclave->pages().space_bytes() / 8);
  // And it counts fully toward virtual memory (the paper's constant 512 MB).
  EXPECT_GE(enclave->PeakVirtualBytes(), enclave->pages().space_bytes() / 8);
}

TEST_F(Fixture, InBoundsAccessPasses) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 100);
  EXPECT_TRUE(asan->CheckAccess(cpu, p, 4, false));
  EXPECT_TRUE(asan->CheckAccess(cpu, p + 96, 4, true));
  EXPECT_TRUE(asan->CheckAccess(cpu, p + 99, 1, true));
}

// A check whose shadow byte lies past a 64 MiB space traps instead of
// reading host memory past the page tables.
TEST(AsanSmallSpace, CheckPastTheSpaceTraps) {
  EnclaveConfig cfg;
  cfg.space_bytes = 64 * kMiB;
  Enclave enclave(cfg);
  Heap heap(&enclave, 16 * kMiB);
  AsanRuntime asan(&enclave, &heap);
  try {
    asan.CheckAccess(enclave.main_cpu(), 0xF0000000, 1, /*is_write=*/false);
    ADD_FAILURE() << "expected a trap";
  } catch (const SimTrap& t) {
    EXPECT_EQ(t.kind(), TrapKind::kSegFault);
  }
}

TEST_F(Fixture, RedzoneHitReports) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 100);
  EXPECT_THROW(asan->CheckAccess(cpu, p - 1, 1, false), SimTrap);
  EXPECT_THROW(asan->CheckAccess(cpu, p + 104, 1, true), SimTrap);  // right rz
  try {
    asan->CheckAccess(cpu, p - 4, 4, false);
    FAIL();
  } catch (const SimTrap& t) {
    EXPECT_EQ(t.kind(), TrapKind::kAsanReport);
  }
}

TEST_F(Fixture, PartialGranuleDetectsTailOverflow) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 5);  // 5 bytes: partial granule
  EXPECT_TRUE(asan->CheckAccess(cpu, p + 4, 1, false));
  EXPECT_THROW(asan->CheckAccess(cpu, p + 5, 1, false), SimTrap);
  EXPECT_THROW(asan->CheckAccess(cpu, p + 4, 4, false), SimTrap);  // spans past 5
}

TEST_F(Fixture, NonFatalModeReturnsFalse) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 16);
  EXPECT_FALSE(asan->CheckAccess(cpu, p - 1, 1, false, /*fatal=*/false));
  EXPECT_EQ(asan->stats().reports, 1u);
}

TEST_F(Fixture, UseAfterFreeDetected) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 64);
  asan->Free(cpu, p);
  EXPECT_THROW(asan->CheckAccess(cpu, p, 4, false), SimTrap);
}

TEST_F(Fixture, DoubleFreeDetected) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 64);
  asan->Free(cpu, p);
  EXPECT_THROW(asan->Free(cpu, p), SimTrap);
}

TEST_F(Fixture, QuarantineDelaysReuse) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t a = asan->Malloc(cpu, 256);
  asan->Free(cpu, a);
  const uint32_t b = asan->Malloc(cpu, 256);
  EXPECT_NE(a, b);  // the freed block is quarantined, not recycled
}

TEST_F(Fixture, QuarantineEvictsAtCapacity) {
  Cpu& cpu = enclave->main_cpu();
  // Push ~2 MiB through a 1 MiB quarantine.
  for (int i = 0; i < 64; ++i) {
    const uint32_t p = asan->Malloc(cpu, 32 * 1024);
    asan->Free(cpu, p);
  }
  EXPECT_GT(asan->stats().quarantine_evictions, 0u);
  EXPECT_LE(asan->stats().quarantine_bytes_held, 1 * kMiB);
}

TEST_F(Fixture, ChurnGrowsFootprintUnlikePlainHeap) {
  // The swaptions effect: alloc/free churn with quarantine keeps eating new
  // pages instead of recycling.
  Cpu& cpu = enclave->main_cpu();
  const uint64_t before = enclave->pages().committed_bytes();
  for (int i = 0; i < 512; ++i) {
    const uint32_t p = asan->Malloc(cpu, 1024);
    asan->Free(cpu, p);
  }
  const uint64_t growth = enclave->pages().committed_bytes() - before;
  EXPECT_GT(growth, 400u * 1024);  // ~512 KB of dead-but-held blocks
}

TEST_F(Fixture, RedzoneScalesWithAllocationSize) {
  EXPECT_EQ(asan->RedzoneFor(16), 16u);
  EXPECT_GE(asan->RedzoneFor(1 << 20), 256u);
  EXPECT_LE(asan->RedzoneFor(64 * 1024 * 1024), 2048u);
}

TEST_F(Fixture, ShadowChecksGenerateMetadataTraffic) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t p = asan->Malloc(cpu, 64);
  const uint64_t before = cpu.counters().metadata_loads;
  asan->CheckAccess(cpu, p, 4, false);
  EXPECT_EQ(cpu.counters().metadata_loads, before + 1);
}

TEST_F(Fixture, RegisterObjectPoisonsAround) {
  Cpu& cpu = enclave->main_cpu();
  const uint32_t raw = heap->Alloc(cpu, 256, 64);
  const uint32_t user = raw + 64;
  asan->RegisterObject(cpu, user, 64, AsanRuntime::kShadowGlobalRedzone);
  EXPECT_TRUE(asan->CheckAccess(cpu, user, 8, false));
  EXPECT_THROW(asan->CheckAccess(cpu, user - 8, 8, false), SimTrap);
  EXPECT_THROW(asan->CheckAccess(cpu, user + 64, 8, false), SimTrap);
}

}  // namespace
}  // namespace sgxb
