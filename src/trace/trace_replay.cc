#include "src/trace/trace_replay.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

namespace sgxb {

namespace {

// Applies an aggregated compute delta through the live counting paths; the
// REPLAY config prices the counts, so configuration sweeps reprice compute.
void ApplyDelta(Cpu& cpu, const CpuDelta& d) {
  cpu.Alu(d.alu);
  cpu.Branch(d.branches);
  cpu.Fp(d.fp);
  cpu.Call(d.calls);
  cpu.Syscall(d.syscalls);
  cpu.CountBoundsCheck(d.bounds_checks);
  cpu.CountBoundsViolation(d.bounds_violations);
  cpu.Charge(d.raw_cycles);
}

struct Region {
  Cpu* caller;
  uint64_t makespan = 0;
};

}  // namespace

// Prices the segment's events with the live Cpu's price list (raw rides
// along unchanged: it is the configuration-independent remainder). `faults`
// is the EPC fault count the segment's miss slice produced under cfg's EPC
// size; ignored outside the enclave. Every enclave-mode syscall is an OCALL,
// priced at zero unless cfg's transition axis is on.
uint64_t ConfigSweeper::SegCounts::Price(const SimConfig& cfg, uint64_t faults) const {
  PerfCounters e;
  e.alu_ops = alu;
  e.branches = branches;
  e.fp_ops = fp;
  e.calls = calls;
  e.syscalls = syscalls;
  e.ocalls = syscalls;
  e.l1_accesses = l1_accesses;
  e.l1_misses = l1_misses;
  e.l2_misses = l2_misses;
  e.llc_accesses = llc_accesses;
  e.llc_misses = llc_misses;
  e.minor_faults = minor_faults;
  e.epc_faults = faults;
  e.ecalls = ecalls;
  return PriceCycles(e, cfg) + raw;
}

// Capture sink for ConfigSweeper: accumulates the cache-geometry-independent
// replay structure while the structural replay runs. A "segment" is
// everything the current cpu did between two structural boundaries; it is
// stored as priced-event COUNTS (plus the raw charges), so any EPC size,
// cost table or enclave mode can re-price it.
struct SweepCapture {
  explicit SweepCapture(ConfigSweeper* sweeper) : sweeper_(sweeper) {}

  void CloseSegment(uint32_t cpu_id, const Cpu& cpu) {
    Grow(cpu_id);
    const PerfCounters& now = cpu.events();
    const PerfCounters& was = last_[cpu_id];
    ConfigSweeper::SegCounts s;
    s.alu = now.alu_ops - was.alu_ops;
    s.branches = now.branches - was.branches;
    s.fp = now.fp_ops - was.fp_ops;
    s.calls = now.calls - was.calls;
    s.syscalls = now.syscalls - was.syscalls;
    s.l1_accesses = now.l1_accesses - was.l1_accesses;
    s.l1_misses = now.l1_misses - was.l1_misses;
    s.l2_misses = now.l2_misses - was.l2_misses;
    s.llc_accesses = now.llc_accesses - was.llc_accesses;
    s.llc_misses = now.llc_misses - was.llc_misses;
    s.minor_faults = now.minor_faults - was.minor_faults;
    s.ecalls = TakePendingEcalls(cpu_id);
    s.raw = now.cycles - was.cycles;  // the live account's cycles are raw only
    s.misses = static_cast<uint32_t>(sweeper_->miss_pages_.size() - miss_mark_);
    if (s.raw != 0 || s.misses != 0 ||
        (s.alu | s.branches | s.fp | s.calls | s.syscalls | s.l1_accesses |
         s.minor_faults | s.ecalls) != 0) {
      ConfigSweeper::Op op;
      op.type = ConfigSweeper::kSegment;
      op.cpu = cpu_id;
      op.seg = static_cast<uint32_t>(sweeper_->segs_.size());
      sweeper_->segs_.push_back(s);
      sweeper_->ops_.push_back(op);
    }
    last_[cpu_id] = now;
    miss_mark_ = sweeper_->miss_pages_.size();
  }

  void Push(ConfigSweeper::OpType type, uint32_t cpu, uint64_t value) {
    ConfigSweeper::Op op;
    op.type = type;
    op.cpu = cpu;
    op.value = value;
    sweeper_->ops_.push_back(op);
  }

  std::vector<uint32_t>* miss_log() { return &sweeper_->miss_pages_; }
  void PushDecommit(uint32_t first_page, uint64_t count) {
    Push(ConfigSweeper::kDecommit, 0, static_cast<uint64_t>(first_page) | count << 32);
  }
  void PushParallelBegin(uint32_t caller) { Push(ConfigSweeper::kParallelBegin, caller, 0); }
  void PushWorkerEnd(uint32_t cpu) { Push(ConfigSweeper::kWorkerEnd, cpu, 0); }
  void PushParallelEnd(uint32_t caller, uint64_t spawn) {
    Push(ConfigSweeper::kParallelEnd, caller, spawn);
  }

  // After the structural replay applies a parallel-region charge to the
  // caller, rebaseline it so the charge is not double-counted in the
  // caller's next segment (Replay re-derives it from worker cycles).
  void Rebaseline(uint32_t cpu_id, const Cpu& cpu) {
    Grow(cpu_id);
    last_[cpu_id] = cpu.events();
  }

  void Grow(uint32_t cpu_id) {
    if (last_.size() <= cpu_id) {
      last_.resize(cpu_id + 1);
    }
  }

  // ECALL counts are event-derived (not counter diffs): the structural
  // replay's counters only see them when the base config charges them, but a
  // capture must reprice them under any config.
  void AddEcalls(uint32_t cpu_id, uint64_t n) {
    if (pending_ecalls_.size() <= cpu_id) {
      pending_ecalls_.resize(cpu_id + 1, 0);
    }
    pending_ecalls_[cpu_id] += n;
    sweeper_->total_ecalls_ += n;
  }
  uint64_t TakePendingEcalls(uint32_t cpu_id) {
    if (pending_ecalls_.size() <= cpu_id) {
      return 0;
    }
    const uint64_t n = pending_ecalls_[cpu_id];
    pending_ecalls_[cpu_id] = 0;
    return n;
  }

  ConfigSweeper* sweeper_;
  std::vector<PerfCounters> last_;
  std::vector<uint64_t> pending_ecalls_;
  size_t miss_mark_ = 0;
};

namespace {

ReplayResult ReplayDecodedImpl(const DecodedTrace& trace, const SimConfig& config,
                               SweepCapture* capture) {
  MemorySystem memsys(config);
  if (capture != nullptr) {
    memsys.set_miss_log(capture->miss_log());
  }
  std::vector<std::unique_ptr<Cpu>> cpus;
  auto cpu_at = [&](uint32_t id) -> Cpu& {
    while (cpus.size() <= id) {
      cpus.push_back(std::make_unique<Cpu>(&memsys));
    }
    return *cpus[id];
  };
  Cpu* cur = &cpu_at(0);
  uint32_t cur_id = 0;
  std::vector<Region> regions;
  std::vector<uint32_t> region_callers;

  for (const DecodedEvent& ev : trace.events()) {
    switch (ev.kind) {
      case TraceEventKind::kAccess:
        cur->MemAccess(ev.addr, ev.size, static_cast<AccessClass>(ev.klass));
        break;
      case TraceEventKind::kAccessRun:
        cur->MemAccessRun(ev.addr, ev.size, ev.stride, ev.count,
                          static_cast<AccessClass>(ev.klass));
        break;
      case TraceEventKind::kCpuDelta:
        ApplyDelta(*cur, trace.delta(ev.aux));
        break;
      case TraceEventKind::kCommit:
        cur->CommitPages(ev.page, static_cast<uint32_t>(ev.count));
        break;
      case TraceEventKind::kDecommit:
        if (capture != nullptr) {
          capture->CloseSegment(cur_id, *cur);
          capture->PushDecommit(ev.page, ev.count);
        }
        for (uint64_t i = 0; i < ev.count; ++i) {
          memsys.epc().Invalidate(static_cast<uint32_t>(ev.page + i));
        }
        break;
      case TraceEventKind::kParallel:
        switch (static_cast<ParallelSub>(ev.sub)) {
          case ParallelSub::kBegin:
            if (capture != nullptr) {
              capture->CloseSegment(cur_id, *cur);
              capture->PushParallelBegin(cur_id);
            }
            regions.push_back(Region{cur});
            region_callers.push_back(cur_id);
            break;
          case ParallelSub::kWorkerBegin:
            if (capture != nullptr) {
              capture->CloseSegment(cur_id, *cur);
            }
            cur = &cpu_at(ev.cpu);
            cur_id = ev.cpu;
            break;
          case ParallelSub::kWorkerEnd:
            if (capture != nullptr) {
              capture->CloseSegment(cur_id, *cur);
              capture->PushWorkerEnd(cur_id);
            }
            if (!regions.empty()) {
              regions.back().makespan = std::max(regions.back().makespan, cur->cycles());
            }
            break;
          case ParallelSub::kEnd: {
            if (!regions.empty()) {
              if (capture != nullptr) {
                capture->CloseSegment(cur_id, *cur);
              }
              const Region region = regions.back();
              regions.pop_back();
              cur = region.caller;
              const uint32_t caller_id = region_callers.back();
              region_callers.pop_back();
              if (capture != nullptr) {
                capture->PushParallelEnd(caller_id, ev.value);
              }
              cur_id = caller_id;
              // Mirrors RunParallel: the caller pays the slowest worker plus
              // the recorded spawn/join cost.
              cur->ChargeUntraced(region.makespan + ev.value);
              if (capture != nullptr) {
                capture->Rebaseline(caller_id, *cur);
              }
            }
            break;
          }
        }
        break;
      case TraceEventKind::kMarker:
        break;  // annotations only
      case TraceEventKind::kControl:
        if (static_cast<ControlSub>(ev.sub) == ControlSub::kSwitchCpu) {
          if (capture != nullptr) {
            capture->CloseSegment(cur_id, *cur);
          }
          cur = &cpu_at(ev.cpu);
          cur_id = ev.cpu;
        } else if (static_cast<ControlSub>(ev.sub) == ControlSub::kEcall) {
          if (capture != nullptr) {
            capture->AddEcalls(cur_id, ev.count);
          }
          cur->Ecall(ev.count);
        } else if (static_cast<ControlSub>(ev.sub) == ControlSub::kLoopRun) {
          // Re-execute the periodic pattern access by access, in recorded
          // order; each phase goes through the same MemAccess(/Run) paths a
          // live run takes, so all counters stay bit-identical.
          const LoopPhase* phases = trace.phases(ev.aux);
          for (uint64_t n = 0; n < ev.count; ++n) {
            for (uint32_t j = 0; j < ev.period; ++j) {
              const LoopPhase& ph = phases[j];
              const uint32_t a = static_cast<uint32_t>(
                  static_cast<int64_t>(ph.addr) +
                  ph.iter_delta * static_cast<int64_t>(n));
              if (ph.count > 1) {
                cur->MemAccessRun(a, ph.size, ph.stride, ph.count,
                                  static_cast<AccessClass>(ph.klass));
              } else {
                cur->MemAccess(a, ph.size, static_cast<AccessClass>(ph.klass));
              }
            }
          }
        }
        break;
    }
  }

  if (capture != nullptr) {
    capture->CloseSegment(cur_id, *cur);
  }

  ReplayResult result;
  result.cycles = cpus[0]->cycles();
  for (const auto& cpu : cpus) {
    result.counters += cpu->counters();
  }
  result.cpu_count = static_cast<uint32_t>(cpus.size());
  result.events_replayed = trace.event_count();
  result.peak_vm_bytes = trace.summary().peak_vm_bytes;
  result.mpx_bt_count = trace.summary().mpx_bt_count;
  result.crashed = trace.summary().crashed != 0;
  result.trap_kind = trace.summary().trap_kind;
  return result;
}

}  // namespace

ReplayResult ReplayDecoded(const DecodedTrace& trace, const SimConfig& config) {
  return ReplayDecodedImpl(trace, config, nullptr);
}

ReplayResult ReplayTrace(const Trace& trace, const SimConfig& config) {
  return ReplayDecodedImpl(DecodedTrace(trace), config, nullptr);
}

ConfigSweeper::ConfigSweeper(const DecodedTrace& trace, const SimConfig& base)
    : config_(base) {
  SweepCapture capture(this);
  base_ = ReplayDecodedImpl(trace, base, &capture);
}

bool ConfigSweeper::CaptureCovers(const SimConfig& base, const SimConfig& cfg) {
  // Cache geometry shapes the hit/miss pattern the capture froze.
  if (base.l1_bytes != cfg.l1_bytes || base.l1_ways != cfg.l1_ways ||
      base.l2_bytes != cfg.l2_bytes || base.l2_ways != cfg.l2_ways ||
      base.l3_bytes != cfg.l3_bytes || base.l3_ways != cfg.l3_ways) {
    return false;
  }
  // An out-of-enclave capture has no EPC page stream to re-simulate from.
  return base.enclave_mode || !cfg.enclave_mode;
}

ReplayResult ConfigSweeper::Replay(const SimConfig& cfg) const {
  if (!Covers(cfg)) {
    std::fprintf(stderr,
                 "ConfigSweeper::Replay: config not covered by the capture "
                 "(cache geometry differs, or enclave replay from an "
                 "out-of-enclave capture); use a full replay instead\n");
    std::abort();
  }
  EpcSim epc(cfg.epc_bytes);
  std::vector<uint64_t> cycles(std::max(base_.cpu_count, 1u), 0);
  std::vector<uint64_t> faults(cycles.size(), 0);
  struct Region2 {
    uint32_t caller;
    uint64_t makespan = 0;
  };
  std::vector<Region2> regions;
  size_t mi = 0;
  for (const Op& op : ops_) {
    switch (op.type) {
      case kSegment: {
        const SegCounts& s = segs_[op.seg];
        uint64_t f = 0;
        if (cfg.enclave_mode) {
          const size_t end = mi + s.misses;
          for (; mi < end; ++mi) {
            f += epc.Touch(miss_pages_[mi]) ? 1 : 0;
          }
        } else {
          mi += s.misses;  // keep the stream aligned for later segments
        }
        faults[op.cpu] += f;
        cycles[op.cpu] += s.Price(cfg, f);
        break;
      }
      case kParallelBegin:
        regions.push_back(Region2{op.cpu});
        break;
      case kWorkerEnd:
        if (!regions.empty()) {
          regions.back().makespan = std::max(regions.back().makespan, cycles[op.cpu]);
        }
        break;
      case kParallelEnd:
        if (!regions.empty()) {
          const Region2 region = regions.back();
          regions.pop_back();
          cycles[region.caller] += region.makespan + op.value;
        }
        break;
      case kDecommit: {
        if (cfg.enclave_mode) {
          const uint32_t first = static_cast<uint32_t>(op.value);
          const uint64_t count = op.value >> 32;
          for (uint64_t i = 0; i < count; ++i) {
            epc.Invalidate(first + static_cast<uint32_t>(i));
          }
        }
        break;
      }
    }
  }

  ReplayResult result = base_;
  result.cycles = cycles[0];
  uint64_t total_cycles = 0, total_faults = 0;
  for (size_t i = 0; i < cycles.size(); ++i) {
    total_cycles += cycles[i];
    total_faults += faults[i];
  }
  result.counters.cycles = total_cycles;
  result.counters.epc_faults = total_faults;
  // Transition counters depend on the target config's gate, not the base's.
  const bool transitions = cfg.enclave_mode && cfg.costs.TransitionsEnabled();
  result.counters.ecalls = transitions ? total_ecalls_ : 0;
  result.counters.ocalls = transitions ? result.counters.syscalls : 0;
  result.counters.transition_cycles = TransitionCycles(result.counters, cfg);
  return result;
}

}  // namespace sgxb
