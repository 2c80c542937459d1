// Cpu + MemorySystem: the cycle-charging execution context.
//
// A MemorySystem models the shared part of the machine (LLC, EPC, cost
// table); a Cpu models one hardware thread (private L1/L2, perf counters,
// cycle account). Workloads run "on" a Cpu: every modeled memory access and
// every modeled ALU/branch/FP op counts an event in the Cpu's account.
//
// Cycles are derived, not accumulated: a Cpu's cycle total is
// PriceCycles(events) + raw charges. The hot paths only count events; the
// one price list (PriceCycles, below) turns counts into cycles when someone
// reads them. The only writers of raw cycles are Cpu::Charge and
// Cpu::ChargeUntraced, for costs that are not a count of a priced event
// (heap and libc constants, parallel-region makespans).
//
// Threads are simulated deterministically: worker bodies execute sequentially
// on separate Cpus sharing one MemorySystem, and the parallel region's cost is
// the max over workers (see src/runtime/thread_pool.h). No host-level
// concurrency ever touches these classes, so they are lock-free by design.

#ifndef SGXBOUNDS_SRC_SIM_MACHINE_H_
#define SGXBOUNDS_SRC_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/cache.h"
#include "src/sim/cost_model.h"
#include "src/sim/epc.h"
#include "src/sim/perf_counters.h"
#include "src/trace/trace_recorder.h"

namespace sgxb {

struct SimConfig {
  uint64_t l1_bytes = 32 * kKiB;
  uint32_t l1_ways = 8;
  uint64_t l2_bytes = 256 * kKiB;
  uint32_t l2_ways = 8;
  uint64_t l3_bytes = 8 * kMiB;
  uint32_t l3_ways = 16;
  // Usable EPC (paper: 128 MiB total, ~94 MiB available to enclaves).
  uint64_t epc_bytes = 94 * kMiB;
  // true = inside an SGX enclave (EPC + MEE charged); false = normal process.
  bool enclave_mode = true;
  CostModel costs;
};

// Field-wise equality, used by the sweep engine's memoization key
// (src/trace/sweep.h): two equal configs replay to identical counters, so
// comparing full configs (rather than hashes) makes memo hits collision-proof.
inline bool operator==(const SimConfig& a, const SimConfig& b) {
  return a.l1_bytes == b.l1_bytes && a.l1_ways == b.l1_ways && a.l2_bytes == b.l2_bytes &&
         a.l2_ways == b.l2_ways && a.l3_bytes == b.l3_bytes && a.l3_ways == b.l3_ways &&
         a.epc_bytes == b.epc_bytes && a.enclave_mode == b.enclave_mode &&
         a.costs == b.costs;
}
inline bool operator!=(const SimConfig& a, const SimConfig& b) { return !(a == b); }

// The one price list: cycles of every priced event category in `events`
// under `config`. Priced categories are ALU/branch/FP ops, calls, syscalls
// (exit cost inside the enclave, native cost outside), L1/L2/L3 hits and
// DRAM accesses, minor faults, and in enclave mode only the MEE line
// surcharge per LLC miss, EPC faults and world switches. `events.cycles`
// and `events.transition_cycles` are not read. The live Cpu and the trace
// sweeper (ConfigSweeper, src/trace/trace_replay.h) both price through here.
uint64_t PriceCycles(const PerfCounters& events, const SimConfig& config);

// The world-switch slice of PriceCycles: ecalls x ecall + ocalls x OCALL
// cost, in enclave mode only.
uint64_t TransitionCycles(const PerfCounters& events, const SimConfig& config);

class MemorySystem {
 public:
  explicit MemorySystem(const SimConfig& config);

  // Services an L2 miss for `line`: updates the shared structures and
  // counts the outcome (LLC hit or miss, EPC fault) in `events`.
  void ServiceL2Miss(uint32_t line, PerfCounters& events) {
    ++events.llc_accesses;
    if (l3_.Access(line)) {
      return;
    }
    ++events.llc_misses;
    if (config_.enclave_mode) {
      const uint32_t page = line >> (kPageShift - kCacheLineShift);
      if (miss_log_ != nullptr) {
        miss_log_->push_back(page);
      }
      if (epc_.Touch(page)) {
        ++events.epc_faults;
      }
    }
  }

  void FlushCaches();

  const SimConfig& config() const { return config_; }
  Cache& l3() { return l3_; }
  const Cache& l3() const { return l3_; }
  EpcSim& epc() { return epc_; }
  const EpcSim& epc() const { return epc_; }
  const CostModel& costs() const { return config_.costs; }

  // Optional trace recorder shared by every Cpu on this machine; null unless
  // a recording was requested (see src/trace/trace_recorder.h).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

  // Optional log of the EPC page touched by every enclave LLC miss, in
  // simulation order. The stream is EPC-size-independent (faults never alter
  // cache behaviour), which is what lets the trace EPC sweeper re-simulate
  // other EPC sizes without re-running the cache model.
  void set_miss_log(std::vector<uint32_t>* log) { miss_log_ = log; }

 private:
  SimConfig config_;
  Cache l3_;
  EpcSim epc_;
  TraceRecorder* trace_ = nullptr;
  std::vector<uint32_t>* miss_log_ = nullptr;
};

enum class AccessClass : uint8_t {
  kAppLoad,
  kAppStore,
  kMetadataLoad,
  kMetadataStore,
};

class Cpu {
 public:
  explicit Cpu(MemorySystem* memory);

  // Compute events.
  void Alu(uint64_t n = 1) { events_.alu_ops += n; }
  void Branch(uint64_t n = 1) { events_.branches += n; }
  void Fp(uint64_t n = 1) { events_.fp_ops += n; }
  void Call(uint64_t n = 1) { events_.calls += n; }

  // Bounds-check outcomes (counted, never priced).
  void CountBoundsCheck(uint64_t n = 1) { events_.bounds_checks += n; }
  void CountBoundsViolation(uint64_t n = 1) { events_.bounds_violations += n; }

  // Constant-cost cycle charge (heap, libc wrappers, instrumentation slow
  // paths). Traced as part of the aggregated compute delta: every Charge
  // call site must be configuration-independent. Config-dependent charges
  // (page-fault repricing, parallel makespans) go through CommitPages /
  // ChargeUntraced instead.
  void Charge(uint64_t cycles) {
    events_.cycles += cycles;
    if (trace_ != nullptr) {
      trace_->OnRawCharge(trace_id_, cycles);
    }
  }

  // Cycle charge excluded from the trace's compute aggregate: the replay
  // engine re-derives it structurally (parallel-region makespans).
  void ChargeUntraced(uint64_t cycles) { events_.cycles += cycles; }

  // Commits `count` fresh pages: the minor-fault accounting choke point.
  // Recorded as a structural event so replays under a different cost table
  // reprice the faults instead of replaying stale cycle counts.
  void CommitPages(uint32_t first_page, uint32_t count) {
    events_.minor_faults += count;
    if (trace_ != nullptr) {
      trace_->OnCommit(trace_id_, first_page, count);
    }
  }

  // Epoch/phase annotation (workload-defined id); a trace marker only.
  void Epoch(uint32_t id) {
    if (trace_ != nullptr) {
      trace_->OnEpoch(trace_id_, id);
    }
  }

  // Counts the memory-hierarchy outcome of an access of `size` bytes at
  // enclave address `addr`. Touches every cache line the access spans; the
  // access must not wrap past 4 GiB.
  //
  // Two fast paths keep the common case cheap without changing any modeled
  // outcome: accesses contained in one line skip the span loop, and a repeat
  // of the immediately preceding line is a guaranteed L1 hit (nothing can
  // evict it in between — the L1 is private and only accesses evict), so it
  // counts the hit without probing the cache.
  void MemAccess(uint32_t addr, uint32_t size, AccessClass klass) {
    if (trace_ != nullptr) {
      trace_->OnAccess(trace_id_, addr, size, static_cast<uint8_t>(klass));
    }
    BumpClassCounter(klass);
    if (size == 0) {
      return;
    }
    const uint32_t first_line = LineOf(addr);
    const uint32_t last_line = LineOf(addr + size - 1);
    if (first_line == last_line) {
      ++events_.l1_accesses;
      if (first_line == last_l1_line_) {
        l1_.CountMruHit();
        return;
      }
      AccessLine(first_line);
      return;
    }
    MemAccessSpan(first_line, last_line);
  }

  // `count` accesses of `size` bytes starting at `addr`, `stride` bytes
  // apart. Bit-identical to calling MemAccess once per access, but batches
  // the guaranteed-MRU repeats of each cache line, which is what lets trace
  // replay (src/trace) outrun live execution.
  void MemAccessRun(uint32_t addr, uint32_t size, int64_t stride, uint64_t count,
                    AccessClass klass);

  // `n` syscall boundary crossings (SS2.1: SCONE syscall interface). When the
  // transition axis is on (CostModel::TransitionsEnabled()), an enclave-mode
  // syscall is also an OCALL world switch — synchronous EEXIT/EENTER or a
  // switchless handoff, priced per CostModel::OcallCost().
  void Syscall(uint64_t n = 1) {
    events_.syscalls += n;
    if (config_->enclave_mode && config_->costs.TransitionsEnabled()) {
      events_.ocalls += n;
    }
  }

  // `n` ECALL world switches (host -> enclave request dispatch). Always
  // recorded in the trace as a structural event; counted (and so priced)
  // only when this machine models an enclave and the transition axis is on,
  // so default configurations are bit-identical with or without Ecall call
  // sites.
  void Ecall(uint64_t n = 1) {
    if (trace_ != nullptr) {
      trace_->OnEcall(trace_id_, n);
    }
    if (config_->enclave_mode && config_->costs.TransitionsEnabled()) {
      events_.ecalls += n;
    }
  }

  // Priced snapshot: every counter, with `cycles` and `transition_cycles`
  // derived from the event counts (plus raw charges) by PriceCycles.
  PerfCounters counters() const;
  // This thread's cycle total: PriceCycles(events) + raw charges.
  uint64_t cycles() const { return PriceCycles(events_, *config_) + events_.cycles; }
  // The live, unpriced account: event counts, with `cycles` holding only the
  // raw charges and `transition_cycles` unused. For readers that difference
  // counts themselves (the trace recorder and the sweeper's capture); every
  // cycle reader goes through counters() or cycles().
  const PerfCounters& events() const { return events_; }
  MemorySystem* memory() { return memory_; }

  // Points this Cpu's taps at `trace` under trace cpu id `id`. Passing null
  // detaches (the hot paths revert to their single-pointer-test cost).
  void AttachTrace(TraceRecorder* trace, uint32_t id) {
    trace_ = trace;
    trace_id_ = id;
  }
  TraceRecorder* trace() const { return trace_; }
  uint32_t trace_id() const { return trace_id_; }

 private:
  static constexpr uint32_t kNoLine = 0xffffffffu;

  void BumpClassCounter(AccessClass klass) { BumpClassCounterN(klass, 1); }

  void BumpClassCounterN(AccessClass klass, uint64_t n) {
    switch (klass) {
      case AccessClass::kAppLoad:
        events_.loads += n;
        break;
      case AccessClass::kAppStore:
        events_.stores += n;
        break;
      case AccessClass::kMetadataLoad:
        events_.metadata_loads += n;
        break;
      case AccessClass::kMetadataStore:
        events_.metadata_stores += n;
        break;
    }
  }

  // Full lookup for one line (l1_accesses already counted by the caller).
  // The L1-hit path stays inline; misses go out of line so the inline code
  // at every Load/Store site stays small.
  void AccessLine(uint32_t line) {
    last_l1_line_ = line;
    if (l1_.Access(line)) {
      return;
    }
    MissLine(line);
  }
  // L1 miss: walk L2 -> LLC -> DRAM/EPC and count where it was served.
  void MissLine(uint32_t line);
  // Multi-line (cache-line-crossing) accesses.
  void MemAccessSpan(uint32_t first_line, uint32_t last_line);

  MemorySystem* memory_;
  // Cached &memory_->config(): immutable after construction; the syscall
  // and ecall paths read its mode and transition gate.
  const SimConfig* config_;
  Cache l1_;
  Cache l2_;
  // Line of the most recent L1 access; repeats are guaranteed hits.
  uint32_t last_l1_line_ = kNoLine;
  // Trace tap: null unless this run is being recorded.
  TraceRecorder* trace_ = nullptr;
  uint32_t trace_id_ = 0;
  PerfCounters events_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_MACHINE_H_
