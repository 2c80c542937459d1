// Hardware-counter analogues collected during simulation. Table 3 of the
// paper reports LLC misses, page faults and bounds-table counts; these
// counters are the source for that reproduction and for all cycle totals.
//
// Cycles are priced from the event counts, not accumulated alongside them:
// `cycles` = PriceCycles(events) + raw charges (src/sim/machine.h). A live
// Cpu keeps only the counts and, in `cycles`, the raw charges; every
// PerfCounters a reader gets (Cpu::counters(), Enclave::TotalCounters(),
// replay results) is priced.

#ifndef SGXBOUNDS_SRC_SIM_PERF_COUNTERS_H_
#define SGXBOUNDS_SRC_SIM_PERF_COUNTERS_H_

#include <cstdint>

namespace sgxb {

struct PerfCounters {
  // Cycle account (the "time" axis of every figure): priced events plus raw
  // charges.
  uint64_t cycles = 0;

  // Instruction mix.
  uint64_t alu_ops = 0;
  uint64_t branches = 0;
  uint64_t fp_ops = 0;
  uint64_t calls = 0;
  uint64_t syscalls = 0;

  // Application memory traffic.
  uint64_t loads = 0;
  uint64_t stores = 0;

  // Metadata traffic added by a hardening scheme (shadow memory, bounds
  // tables, LB footers). Counted separately so instrumentation cost is
  // attributable.
  uint64_t metadata_loads = 0;
  uint64_t metadata_stores = 0;

  // Cache behaviour.
  uint64_t l1_accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t llc_accesses = 0;
  uint64_t llc_misses = 0;

  // Paging behaviour.
  uint64_t epc_faults = 0;
  uint64_t minor_faults = 0;

  // Bounds-check outcome counts (security-relevant).
  uint64_t bounds_checks = 0;
  uint64_t bounds_violations = 0;

  // Enclave transitions (zero unless CostModel::TransitionsEnabled()).
  // `ocalls` mirrors enclave-mode syscalls when the axis is on;
  // `transition_cycles` is the slice of `cycles` attributable to world
  // switches (TransitionCycles), so transition overhead is separable in
  // every table.
  uint64_t ecalls = 0;
  uint64_t ocalls = 0;
  uint64_t transition_cycles = 0;

  uint64_t instructions() const { return alu_ops + branches + fp_ops + loads + stores; }
  uint64_t page_faults() const { return epc_faults + minor_faults; }

  // Exact equality across every counter - the engine-differential tests'
  // definition of "bit-identical simulation".
  bool operator==(const PerfCounters& other) const {
    return cycles == other.cycles && alu_ops == other.alu_ops &&
           branches == other.branches && fp_ops == other.fp_ops &&
           calls == other.calls && syscalls == other.syscalls &&
           loads == other.loads && stores == other.stores &&
           metadata_loads == other.metadata_loads &&
           metadata_stores == other.metadata_stores &&
           l1_accesses == other.l1_accesses && l1_misses == other.l1_misses &&
           l2_misses == other.l2_misses && llc_accesses == other.llc_accesses &&
           llc_misses == other.llc_misses && epc_faults == other.epc_faults &&
           minor_faults == other.minor_faults && bounds_checks == other.bounds_checks &&
           bounds_violations == other.bounds_violations && ecalls == other.ecalls &&
           ocalls == other.ocalls && transition_cycles == other.transition_cycles;
  }
  bool operator!=(const PerfCounters& other) const { return !(*this == other); }

  PerfCounters& operator+=(const PerfCounters& other) {
    cycles += other.cycles;
    alu_ops += other.alu_ops;
    branches += other.branches;
    fp_ops += other.fp_ops;
    calls += other.calls;
    syscalls += other.syscalls;
    loads += other.loads;
    stores += other.stores;
    metadata_loads += other.metadata_loads;
    metadata_stores += other.metadata_stores;
    l1_accesses += other.l1_accesses;
    l1_misses += other.l1_misses;
    l2_misses += other.l2_misses;
    llc_accesses += other.llc_accesses;
    llc_misses += other.llc_misses;
    epc_faults += other.epc_faults;
    minor_faults += other.minor_faults;
    bounds_checks += other.bounds_checks;
    bounds_violations += other.bounds_violations;
    ecalls += other.ecalls;
    ocalls += other.ocalls;
    transition_cycles += other.transition_cycles;
    return *this;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_PERF_COUNTERS_H_
