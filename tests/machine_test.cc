// Tests for Cpu/MemorySystem cycle charging: hierarchy latencies, MEE and
// EPC-fault charging in enclave mode, counter bookkeeping, and the pricing
// identity (cycles = priced event counts + raw charges).

#include <gtest/gtest.h>

#include "src/enclave/enclave.h"
#include "src/sim/machine.h"

namespace sgxb {
namespace {

SimConfig SmallConfig(bool enclave) {
  SimConfig cfg;
  cfg.enclave_mode = enclave;
  cfg.epc_bytes = 16 * kPageSize;
  return cfg;
}

TEST(MachineTest, AluBranchFpCharges) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  cpu.Alu(3);
  cpu.Branch();
  cpu.Fp(2);
  const auto& costs = mem.costs();
  EXPECT_EQ(cpu.cycles(), 3 * costs.alu + costs.branch + 2 * costs.fp);
  EXPECT_EQ(cpu.counters().alu_ops, 3u);
  EXPECT_EQ(cpu.counters().branches, 1u);
  EXPECT_EQ(cpu.counters().fp_ops, 2u);
}

TEST(MachineTest, ColdAccessMissesAllLevels) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  cpu.MemAccess(0x1000, 4, AccessClass::kAppLoad);
  EXPECT_EQ(cpu.counters().l1_misses, 1u);
  EXPECT_EQ(cpu.counters().l2_misses, 1u);
  EXPECT_EQ(cpu.counters().llc_misses, 1u);
  EXPECT_EQ(cpu.cycles(), static_cast<uint64_t>(mem.costs().dram));
}

TEST(MachineTest, WarmAccessHitsL1) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  cpu.MemAccess(0x1000, 4, AccessClass::kAppLoad);
  const uint64_t cold = cpu.cycles();
  cpu.MemAccess(0x1000, 4, AccessClass::kAppLoad);
  EXPECT_EQ(cpu.cycles() - cold, static_cast<uint64_t>(mem.costs().l1_hit));
  EXPECT_EQ(cpu.counters().l1_accesses, 2u);
  EXPECT_EQ(cpu.counters().l1_misses, 1u);
}

TEST(MachineTest, EnclaveModeChargesMeeAndFault) {
  MemorySystem mem(SmallConfig(true));
  Cpu cpu(&mem);
  cpu.MemAccess(0x1000, 4, AccessClass::kAppLoad);
  const auto& costs = mem.costs();
  EXPECT_EQ(cpu.cycles(), static_cast<uint64_t>(costs.dram) + costs.mee_line + costs.epc_fault);
  EXPECT_EQ(cpu.counters().epc_faults, 1u);
  // Same page, different line: resident page, no fault, still MEE.
  cpu.MemAccess(0x1040, 4, AccessClass::kAppLoad);
  EXPECT_EQ(cpu.counters().epc_faults, 1u);
}

TEST(MachineTest, NonEnclaveModeNeverFaultsEpc) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  for (uint32_t p = 0; p < 64; ++p) {
    cpu.MemAccess(p * kPageSize, 4, AccessClass::kAppLoad);
  }
  EXPECT_EQ(cpu.counters().epc_faults, 0u);
}

TEST(MachineTest, MultiLineAccessTouchesEachLine) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  cpu.MemAccess(0x1000, 256, AccessClass::kAppStore);  // 4 lines
  EXPECT_EQ(cpu.counters().l1_accesses, 4u);
  EXPECT_EQ(cpu.counters().stores, 1u);
}

TEST(MachineTest, StraddlingAccessTouchesTwoLines) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  cpu.MemAccess(0x103e, 4, AccessClass::kAppLoad);  // crosses a 64B boundary
  EXPECT_EQ(cpu.counters().l1_accesses, 2u);
}

TEST(MachineTest, MetadataClassCountsSeparately) {
  MemorySystem mem(SmallConfig(false));
  Cpu cpu(&mem);
  cpu.MemAccess(0x1000, 4, AccessClass::kMetadataLoad);
  cpu.MemAccess(0x2000, 4, AccessClass::kMetadataStore);
  EXPECT_EQ(cpu.counters().metadata_loads, 1u);
  EXPECT_EQ(cpu.counters().metadata_stores, 1u);
  EXPECT_EQ(cpu.counters().loads, 0u);
  EXPECT_EQ(cpu.counters().stores, 0u);
}

TEST(MachineTest, SyscallCostDependsOnMode) {
  MemorySystem enclave_mem(SmallConfig(true));
  MemorySystem native_mem(SmallConfig(false));
  Cpu a(&enclave_mem);
  Cpu b(&native_mem);
  a.Syscall();
  b.Syscall();
  EXPECT_GT(a.cycles(), b.cycles());
}

TEST(MachineTest, CountersAggregate) {
  PerfCounters a;
  PerfCounters b;
  a.cycles = 10;
  a.loads = 2;
  b.cycles = 5;
  b.loads = 1;
  b.epc_faults = 3;
  a += b;
  EXPECT_EQ(a.cycles, 15u);
  EXPECT_EQ(a.loads, 3u);
  EXPECT_EQ(a.page_faults(), 3u);
}

TEST(MachineTest, SharedLlcAcrossCpus) {
  MemorySystem mem(SmallConfig(false));
  Cpu a(&mem);
  Cpu b(&mem);
  a.MemAccess(0x5000, 4, AccessClass::kAppLoad);  // fills LLC
  b.MemAccess(0x5000, 4, AccessClass::kAppLoad);  // misses private L1/L2, hits LLC
  EXPECT_EQ(b.counters().llc_misses, 0u);
  EXPECT_EQ(b.counters().l1_misses, 1u);
  EXPECT_EQ(b.cycles(), static_cast<uint64_t>(mem.costs().l3_hit));
}

// The pricing identity: a Cpu's cycles are PriceCycles(events) plus raw
// charges. Every event path runs once with a known outcome, and the expected
// total is summed by hand from the cost table.
TEST(MachineTest, CyclesEqualHandPricedEvents) {
  for (const bool enclave : {false, true}) {
    for (const bool transitions : {false, true}) {
      SCOPED_TRACE(std::string(enclave ? "enclave" : "native") +
                   (transitions ? " + transitions" : ""));
      SimConfig cfg = SmallConfig(enclave);
      if (transitions) {
        cfg.costs.EnableTransitions();
      }
      MemorySystem mem(cfg);
      Cpu cpu(&mem);
      const CostModel& c = mem.costs();
      const bool switches = enclave && transitions;
      uint64_t want = 0;

      cpu.Alu(5);
      cpu.Branch(3);
      cpu.Fp(2);
      cpu.Call();
      want += 5 * c.alu + 3 * c.branch + 2 * c.fp + c.call;
      cpu.Syscall();
      want += enclave ? c.syscall_exit : c.syscall_native;
      cpu.Ecall();
      const uint64_t want_transitions = switches ? c.ocall + c.ecall : 0;
      want += want_transitions;
      cpu.CommitPages(0, 3);
      want += 3 * c.minor_fault;
      cpu.Charge(123);
      cpu.ChargeUntraced(77);
      want += 200;

      // A line in a page not yet touched, and a line in a resident page.
      const uint64_t fresh = c.dram + (enclave ? c.mee_line + c.epc_fault : 0);
      const uint64_t cold = c.dram + (enclave ? c.mee_line : 0);
      cpu.MemAccess(0x10000, 4, AccessClass::kAppLoad);
      want += fresh;
      cpu.MemAccess(0x10004, 4, AccessClass::kAppLoad);  // MRU repeat
      want += c.l1_hit;
      cpu.MemAccess(0x10040, 4, AccessClass::kAppStore);
      want += cold;
      cpu.MemAccess(0x10000, 4, AccessClass::kMetadataLoad);  // probed L1 hit
      want += c.l1_hit;
      // Eight lines one page apart share 0x10000's L1 set (not its L2 set):
      // they evict it from the 8-way L1 only.
      for (uint32_t i = 1; i <= 8; ++i) {
        cpu.MemAccess(0x10000 + i * kPageSize, 4, AccessClass::kAppLoad);
        want += fresh;
      }
      cpu.MemAccess(0x10000, 4, AccessClass::kAppLoad);
      want += c.l2_hit;
      cpu.MemAccessRun(0x10000, 4, 4, 16, AccessClass::kAppLoad);  // one line, batched
      want += 16 * c.l1_hit;
      cpu.MemAccess(0x1003e, 4, AccessClass::kAppStore);  // spans two L1-resident lines
      want += 2 * c.l1_hit;
      // Another cpu's first touch of a line the first one brought in: L3 hit.
      Cpu other(&mem);
      other.MemAccess(0x10000, 4, AccessClass::kAppLoad);

      EXPECT_EQ(cpu.counters().epc_faults, enclave ? 9u : 0u);
      EXPECT_EQ(cpu.cycles(), want);
      const PerfCounters priced = cpu.counters();
      EXPECT_EQ(priced.cycles, want);
      EXPECT_EQ(priced.transition_cycles, want_transitions);
      EXPECT_EQ(other.cycles(), static_cast<uint64_t>(c.l3_hit));
    }
  }
}

// Aggregates sum priced snapshots: the enclave's total cycles and transition
// cycles are the per-cpu sums.
TEST(MachineTest, EnclaveTotalsSumPricedCpus) {
  EnclaveConfig cfg;
  cfg.space_bytes = 64 * kMiB;
  cfg.sim.epc_bytes = 8 * kMiB;
  cfg.sim.costs.EnableTransitions();
  Enclave e(cfg);
  Cpu& main = e.main_cpu();
  Cpu* worker = e.NewCpu();
  main.Alu(7);
  main.Syscall();
  main.Ecall();
  main.MemAccess(0x10000, 4, AccessClass::kAppLoad);
  main.Charge(11);
  worker->Branch(4);
  worker->Syscall(2);
  worker->MemAccess(0x20000, 64, AccessClass::kAppStore);
  worker->ChargeUntraced(5);

  const PerfCounters total = e.TotalCounters();
  EXPECT_EQ(total.cycles, main.cycles() + worker->cycles());
  EXPECT_EQ(total.transition_cycles,
            main.counters().transition_cycles + worker->counters().transition_cycles);
  EXPECT_EQ(total.transition_cycles,
            static_cast<uint64_t>(cfg.sim.costs.ecall) + 3 * cfg.sim.costs.ocall);
}

// An access that wraps past 4 GiB would walk every line of the address space
// (and index past the EPC page table); the span path refuses it.
TEST(MachineDeathTest, AccessWrappingTheAddressSpaceAborts) {
  MemorySystem mem(SmallConfig(true));
  Cpu cpu(&mem);
  EXPECT_DEATH(cpu.MemAccess(0xFFFFFFE0u, 64, AccessClass::kAppLoad),
               "first_line <= last_line");
  EXPECT_DEATH(cpu.MemAccessRun(0xFFFFFFC0u, 64, 32, 3, AccessClass::kAppLoad),
               "first_line <= last_line");
}

}  // namespace
}  // namespace sgxb
