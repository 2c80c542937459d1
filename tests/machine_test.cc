// Tests for Cpu/MemorySystem cycle charging: hierarchy latencies, MEE and
// EPC-fault charging in enclave mode, counter bookkeeping, and the pricing
// identity (cycles = priced event counts + raw charges).

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

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

// --- Hierarchy oracle --------------------------------------------------------

// Exact LRU as per-set move-to-front lists, none of Cache's fast paths.
class RefLru {
 public:
  RefLru(uint64_t bytes, uint32_t ways)
      : ways_(ways), sets_(bytes / kCacheLineSize / ways) {}

  bool Access(uint32_t line) {
    auto& set = sets_[line % sets_.size()];
    auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == ways_) {
      set.pop_back();
    }
    set.insert(set.begin(), line);
    return hit;
  }

  // Set `set`'s lines, most recent first (Cache::SetOrder's order).
  const std::vector<uint32_t>& Order(uint32_t set) const { return sets_[set]; }
  uint32_t sets() const { return static_cast<uint32_t>(sets_.size()); }

 private:
  uint32_t ways_;
  std::vector<std::vector<uint32_t>> sets_;
};

// Exact LRU over EPC pages: a touch of a non-resident page faults and, when
// the EPC is full, evicts the least recently touched page.
class RefEpc {
 public:
  explicit RefEpc(uint64_t bytes) : capacity_(bytes / kPageSize) {}

  bool Touch(uint32_t page) {
    auto it = std::find(pages_.begin(), pages_.end(), page);
    const bool fault = it == pages_.end();
    if (!fault) {
      pages_.erase(it);
    } else if (pages_.size() == capacity_) {
      pages_.pop_back();
    }
    pages_.push_front(page);
    return fault;
  }

  bool Resident(uint32_t page) const {
    return std::find(pages_.begin(), pages_.end(), page) != pages_.end();
  }

 private:
  uint64_t capacity_;
  std::list<uint32_t> pages_;
};

// L1 -> L2 -> LLC -> EPC, counting what the Cpu counts.
struct RefHierarchy {
  explicit RefHierarchy(const SimConfig& c)
      : l1(c.l1_bytes, c.l1_ways), l2(c.l2_bytes, c.l2_ways), l3(c.l3_bytes, c.l3_ways),
        epc(c.epc_bytes) {}

  void Access(uint32_t addr, uint32_t size) {
    if (size == 0) {
      return;
    }
    for (uint32_t line = LineOf(addr); line <= LineOf(addr + size - 1); ++line) {
      ++events.l1_accesses;
      if (l1.Access(line)) {
        continue;
      }
      ++events.l1_misses;
      if (l2.Access(line)) {
        continue;
      }
      ++events.l2_misses;
      ++events.llc_accesses;
      if (l3.Access(line)) {
        continue;
      }
      ++events.llc_misses;
      events.epc_faults += epc.Touch(line >> (kPageShift - kCacheLineShift)) ? 1 : 0;
    }
  }

  RefLru l1, l2, l3;
  RefEpc epc;
  PerfCounters events;
};

// Every set of `got` holds the lines of the same set of `want`, in the same
// recency order. Line id s lies in set s, so SetOrder(s) names set s.
::testing::AssertionResult SameSets(const char* level, const Cache& got, const RefLru& want) {
  if (got.sets() != want.sets()) {
    return ::testing::AssertionFailure() << level << ": " << got.sets() << " sets, want "
                                         << want.sets();
  }
  for (uint32_t set = 0; set < got.sets(); ++set) {
    if (got.SetOrder(set) != want.Order(set)) {
      return ::testing::AssertionFailure() << level << " set " << set << " recency order differs";
    }
  }
  return ::testing::AssertionSuccess();
}

struct HierarchyGeometry {
  const char* name;
  uint64_t l1_bytes;
  uint32_t l1_ways;
  uint64_t l2_bytes;
  uint32_t l2_ways;
  uint64_t l3_bytes;
  uint32_t l3_ways;
};

// One Cpu per geometry, driven by a scrambled mix of single-line,
// line-straddling and strided-run accesses, must match a plain reference
// hierarchy at every step: every counter, all three levels' full recency
// order and the EPC's resident set. Guards the Cpu's inline way-0/way-1
// probe, the batched MRU repeats of MemAccessRun, the fused L1->L2->LLC walk
// with its 8- and 16-way slides, and the scalar walk of every other
// associativity.
TEST(MachineTest, HierarchyMatchesReferenceModelOnScrambledStream) {
  static constexpr HierarchyGeometry kGeometries[] = {
      // The machine's 8/8/16 ways at small sizes: 8, 16 and 16 sets.
      {"8/8/16", 4 * kKiB, 8, 8 * kKiB, 8, 16 * kKiB, 16},
      // A 16-way L1 (4 sets) over the same L2 and LLC.
      {"16/8/16", 4 * kKiB, 16, 8 * kKiB, 8, 16 * kKiB, 16},
      // Direct-mapped L1, 3-way L2, 12-way LLC: 32 sets each, scalar walks.
      {"1/3/12", 2 * kKiB, 1, 6 * kKiB, 3, 24 * kKiB, 12},
      // 4-way L1 (8 sets), 2-way L2 (32 sets), 16-way LLC (16 sets).
      {"4/2/16", 2 * kKiB, 4, 4 * kKiB, 2, 16 * kKiB, 16},
  };
  for (const HierarchyGeometry& g : kGeometries) {
    SCOPED_TRACE(g.name);
    SimConfig cfg;
    cfg.l1_bytes = g.l1_bytes;
    cfg.l1_ways = g.l1_ways;
    cfg.l2_bytes = g.l2_bytes;
    cfg.l2_ways = g.l2_ways;
    cfg.l3_bytes = g.l3_bytes;
    cfg.l3_ways = g.l3_ways;
    cfg.epc_bytes = 12 * kPageSize;
    MemorySystem mem(cfg);
    Cpu cpu(&mem);
    RefHierarchy ref(cfg);

    constexpr uint32_t kBase = 0x10000;
    constexpr uint32_t kSpan = 32 * kPageSize;  // 32 pages over a 12-page EPC
    // Every page the stream can touch: the span plus the runs' reach (a
    // backwards run from near kBase ends up to a page below it).
    constexpr uint32_t kFirstPage = kBase / kPageSize - 1;
    constexpr uint32_t kEndPage = kBase / kPageSize + kSpan / kPageSize + 2;
    uint32_t x = 2024;
    auto next = [&x] {
      x = x * 1664525u + 1013904223u;
      return x >> 8;
    };
    uint64_t accesses = 0;
    uint32_t hot = kBase;
    for (int step = 0; step < 20000; ++step) {
      const uint32_t kind = next() % 8;
      // Half the time near a hot address that drifts, so every level both
      // hits and misses; otherwise anywhere in the span.
      if (next() % 64 == 0) {
        hot = kBase + next() % (kSpan - 4096);
      }
      const uint32_t addr =
          next() % 2 == 0 ? hot + next() % 512 : kBase + next() % (kSpan - 4096);
      const AccessClass klass = static_cast<AccessClass>(next() % 4);
      if (kind < 4) {  // within one line, or empty
        const uint32_t size = std::min<uint32_t>(1u << (next() % 4), kCacheLineSize - addr % 64);
        const uint32_t n = kind == 0 && next() % 8 == 0 ? 0 : size;
        cpu.MemAccess(addr, n, klass);
        ref.Access(addr, n);
        ++accesses;
      } else if (kind < 6) {  // straddles one or more line boundaries
        const uint32_t a = (addr | 63u) - next() % 8;
        const uint32_t size = 9 + next() % 200;
        cpu.MemAccess(a, size, klass);
        ref.Access(a, size);
        ++accesses;
      } else {  // a strided run, forwards or backwards
        static constexpr int64_t kStrides[] = {4, 8, 12, 64, 100, -8, -64, 0};
        const int64_t stride = kStrides[next() % 8];
        const uint32_t size = 1u << (next() % 4);
        const uint64_t count = 1 + next() % 48;
        const uint32_t start = addr + 2048;  // room for a backwards run
        cpu.MemAccessRun(start, size, stride, count, klass);
        int64_t a = start;
        for (uint64_t i = 0; i < count; ++i, a += stride) {
          ref.Access(static_cast<uint32_t>(a), size);
        }
        accesses += count;
      }
      const PerfCounters& got = cpu.events();
      ASSERT_EQ(got.l1_accesses, ref.events.l1_accesses) << "step " << step;
      ASSERT_EQ(got.l1_misses, ref.events.l1_misses) << "step " << step;
      ASSERT_EQ(got.l2_misses, ref.events.l2_misses) << "step " << step;
      ASSERT_EQ(got.llc_accesses, ref.events.llc_accesses) << "step " << step;
      ASSERT_EQ(got.llc_misses, ref.events.llc_misses) << "step " << step;
      ASSERT_EQ(got.epc_faults, ref.events.epc_faults) << "step " << step;
      ASSERT_TRUE(SameSets("l1", cpu.l1(), ref.l1)) << "step " << step;
      ASSERT_TRUE(SameSets("l2", cpu.l2(), ref.l2)) << "step " << step;
      ASSERT_TRUE(SameSets("l3", mem.l3(), ref.l3)) << "step " << step;
      for (uint32_t page = kFirstPage; page < kEndPage; ++page) {
        ASSERT_EQ(mem.epc().Resident(page), ref.epc.Resident(page))
            << "step " << step << " page " << page;
      }
    }
    const PerfCounters& got = cpu.events();
    EXPECT_EQ(got.loads + got.stores + got.metadata_loads + got.metadata_stores, accesses);
    // Every outcome occurs often enough for the comparison to mean something.
    const PerfCounters& e = ref.events;
    EXPECT_GT(e.l1_accesses - e.l1_misses, 10000u);  // L1 hits
    EXPECT_GT(e.l1_misses - e.l2_misses, 1000u);     // L2 hits
    EXPECT_GT(e.llc_accesses - e.llc_misses, 1000u);  // LLC hits
    EXPECT_GT(e.llc_misses - e.epc_faults, 1000u);   // DRAM, page resident
    EXPECT_GT(e.epc_faults, 1000u);
  }
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
