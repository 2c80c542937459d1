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
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sim/cache.h"
#include "src/sim/cost_model.h"
#include "src/sim/epc.h"
#include "src/sim/perf_counters.h"
#include "src/sim/sim_config.h"
#include "src/trace/trace_recorder.h"

namespace sgxb {

// Checks that `config` describes a machine the Cache and EpcSim constructors
// accept: every cache level has 1..kMaxCacheWays ways, a line count
// divisible by its ways and a power-of-two set count; the EPC holds at
// least one page; and no level or EPC is larger than the 4 GiB enclave
// space. Returns false and fills *error (when non-null) naming the first bad
// field. For configs that come from outside the program, such as a trace
// file's header.
bool ValidateSimConfig(const SimConfig& config, std::string* error);

// Bytes one Cpu built under `config` holds: the object and the slot arrays of
// its private L1 and L2 (one 4-byte slot per line, plus a sentinel each).
uint64_t CpuFootprintBytes(const SimConfig& config);

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

  // The tail of an LLC miss of `line`, the end of Cpu::AccessLine's walk:
  // counts the miss in `events` and, in enclave mode, logs the line's EPC
  // page and touches it, counting a fault.
  void LlcMiss(uint32_t line, PerfCounters& events) {
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
  // outcome: accesses contained in one line skip the span loop, and a line
  // that is already its L1 set's MRU way is a hit that changes no LRU state
  // (Cache::IsMru), so it is counted inline without a call into the cache.
  // The way-1 hit, which decoded IR takes inline, stays in AccessLine here:
  // inlined at every site it moved GCC's inlining of the workload bodies
  // and cost ~4% of hostbench paper_live cpu_s (1 of 5 interleaved pairs
  // better, x86-64, GCC 12 -O2).
  //
  // Forced inline: in the largest workload bodies GCC's growth limits
  // otherwise leave ~200 sites calling it out of line, which cost ~6% of
  // hostbench paper_live cpu_s (5 interleaved pairs, x86-64, GCC -O2).
  [[gnu::always_inline]] void MemAccess(uint32_t addr, uint32_t size, AccessClass klass) {
    if (trace_ != nullptr) {
      TapAccess(addr, size, klass);
    }
    BumpClassCounter(klass);
    if (size == 0) {
      return;
    }
    const uint32_t first_line = LineOf(addr);
    const uint32_t last_line = LineOf(addr + size - 1);
    if (first_line == last_line) {
      ++events_.l1_accesses;
      if (!l1_.IsMru(first_line)) {
        AccessLine(first_line);
      }
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

  // The L1 model and the live account, for decoded IR that counts an L1
  // way-0 or way-1 hit without calling MemAccess
  // (Enclave::InlineAccessFor). Every other writer counts through the
  // methods above.
  Cache& l1() { return l1_; }
  PerfCounters* mutable_events() { return &events_; }
  // The L2 model, read-only (tests compare its recency order). Out of line,
  // like Cache's JIT accessors: inline members nothing hot calls still
  // moved GCC's inlining in the workload bodies.
  const Cache& l2() const;

  // Points this Cpu's taps at `trace` under trace cpu id `id`. Passing null
  // detaches (the hot paths revert to their single-pointer-test cost).
  void AttachTrace(TraceRecorder* trace, uint32_t id) {
    trace_ = trace;
    trace_id_ = id;
  }
  TraceRecorder* trace() const { return trace_; }
  uint32_t trace_id() const { return trace_id_; }

 private:
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

  // The recording tap of MemAccess, out of line: inlined, the recorder's
  // run coalescing would be expanded at every MemAccess site, and those
  // sites run untraced almost always.
  void TapAccess(uint32_t addr, uint32_t size, AccessClass klass);

  // Full lookup for a line that is not its L1 set's MRU way (l1_accesses
  // already counted by the caller): the L1 way-1 probe, then one walk of
  // L1, L2 and the LLC down to DRAM/EPC, counting where the line was
  // served. Out of line, so the inline code at every Load/Store site stays
  // the MRU test alone.
  void AccessLine(uint32_t line);
  // Multi-line (cache-line-crossing) accesses.
  void MemAccessSpan(uint32_t first_line, uint32_t last_line);

  MemorySystem* memory_;
  // Cached &memory_->config(): immutable after construction; the syscall
  // and ecall paths read its mode and transition gate.
  const SimConfig* config_;
  Cache l1_;
  Cache l2_;
  // Trace tap: null unless this run is being recorded.
  TraceRecorder* trace_ = nullptr;
  uint32_t trace_id_ = 0;
  PerfCounters events_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_MACHINE_H_
