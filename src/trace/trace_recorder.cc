#include "src/trace/trace_recorder.h"

#include "src/common/check.h"

namespace sgxb {

TraceRecorder::TraceRecorder(std::string workload, std::string note) {
  trace_.header.workload = std::move(workload);
  trace_.header.note = std::move(note);
  scratch_.reserve(64);
  trace_.events.reserve(1 << 16);
}

void TraceRecorder::BeginRun(const TraceHeader& machine_fields) {
  CHECK(!begun_);
  std::string workload = std::move(trace_.header.workload);
  std::string note = std::move(trace_.header.note);
  trace_.header = machine_fields;
  trace_.header.version = trace_.header.sim.costs.TransitionsEnabled()
                              ? kTraceVersionTransitions
                              : kTraceVersion;
  trace_.header.cost_table_id = CostTableId(trace_.header.sim.costs);
  if (!workload.empty()) {
    trace_.header.workload = std::move(workload);
  }
  if (!note.empty()) {
    trace_.header.note = std::move(note);
  }
  begun_ = true;
}

uint32_t TraceRecorder::RegisterCpu(const PerfCounters* events) {
  const uint32_t id = static_cast<uint32_t>(tracks_.size());
  CpuTrack track;
  track.events = events;
  tracks_.push_back(track);
  return id;
}

void TraceRecorder::EmitEvent(const std::vector<uint8_t>& scratch) {
  hash_ = FnvUpdate(hash_, scratch.data(), scratch.size());
  ++event_count_;
  if (event_count_ <= event_limit_) {
    trace_.events.insert(trace_.events.end(), scratch.begin(), scratch.end());
  } else {
    truncated_ = true;
  }
}

void TraceRecorder::EmitSwitch(uint32_t cpu) {
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kControl) |
                     static_cast<uint8_t>(ControlSub::kSwitchCpu) << 3);
  PutVarint(scratch_, cpu);
  EmitEvent(scratch_);
  current_cpu_ = cpu;
}

void TraceRecorder::FlushRun() {
  if (run_count_ == 0) {
    return;
  }
  AccessDesc d;
  d.addr = run_addr_;
  d.size = run_size_;
  d.klass = run_klass_;
  if (run_count_ == 2) {
    // A two-access "run" is just a pair. Folding it would bake the pair's
    // stride — often the distance between two unrelated arrays, different on
    // every loop iteration — into the descriptor shape, which defeats the
    // periodic detector (matrixmul's inner product is the canonical victim).
    // Push both accesses raw and let the loop detector see the real pattern.
    const uint32_t second = static_cast<uint32_t>(
        static_cast<int64_t>(run_addr_) + run_stride_);
    d.stride = 0;
    d.count = 1;
    run_count_ = 0;
    run_stride_ = 0;
    PushDesc(d);
    d.addr = second;
    PushDesc(d);
    return;
  }
  d.stride = run_count_ > 1 ? run_stride_ : 0;
  d.count = run_count_;
  run_count_ = 0;
  run_stride_ = 0;
  PushDesc(d);
}

void TraceRecorder::EmitDesc(const AccessDesc& d) {
  const uint8_t tag = SizeTagOf(d.size);
  scratch_.clear();
  const TraceEventKind kind =
      d.count == 1 ? TraceEventKind::kAccess : TraceEventKind::kAccessRun;
  scratch_.push_back(static_cast<uint8_t>(kind) | (d.klass & 3u) << 3 | tag << 5);
  PutZigZag(scratch_, static_cast<int64_t>(d.addr) - static_cast<int64_t>(last_addr_));
  if (d.count > 1) {
    PutZigZag(scratch_, d.stride);
    PutVarint(scratch_, d.count);
  }
  if (tag == 0) {
    PutVarint(scratch_, d.size);
  }
  EmitEvent(scratch_);
  last_addr_ = static_cast<uint32_t>(static_cast<int64_t>(d.addr) +
                                     d.stride * static_cast<int64_t>(d.count - 1));
}

void TraceRecorder::PushDesc(const AccessDesc& d) {
  if (loop_active_) {
    const AccessDesc& b = loop_base_[loop_phase_];
    const uint32_t expected = static_cast<uint32_t>(
        static_cast<int64_t>(b.addr) +
        loop_delta_[loop_phase_] * static_cast<int64_t>(loop_iters_));
    if (d.SameShape(b) && d.addr == expected) {
      if (++loop_phase_ == loop_period_) {
        loop_phase_ = 0;
        ++loop_iters_;
      }
      return;
    }
    FlushLoop();
  }
  window_.push_back(d);
  if (TryDetectLoop()) {
    return;
  }
  if (window_.size() > kWindowCap) {
    EmitDesc(window_.front());
    window_.erase(window_.begin());
  }
}

bool TraceRecorder::TryDetectLoop() {
  const size_t w = window_.size();
  for (uint32_t period = 1; period <= kMaxLoopPeriod; ++period) {
    if (w < 3u * period) {
      break;
    }
    const AccessDesc* it0 = &window_[w - 3u * period];  // oldest iteration
    const AccessDesc* it1 = &window_[w - 2u * period];
    const AccessDesc* it2 = &window_[w - period];
    bool match = true;
    for (uint32_t j = 0; j < period; ++j) {
      const int64_t d01 = static_cast<int64_t>(it1[j].addr) - static_cast<int64_t>(it0[j].addr);
      const int64_t d12 = static_cast<int64_t>(it2[j].addr) - static_cast<int64_t>(it1[j].addr);
      if (!it0[j].SameShape(it1[j]) || !it1[j].SameShape(it2[j]) || d01 != d12) {
        match = false;
        break;
      }
    }
    if (!match) {
      continue;
    }
    // Pre-loop descs emit as-is; the three matched iterations seed the loop.
    for (size_t i = 0; i + 3u * period < w; ++i) {
      EmitDesc(window_[i]);
    }
    for (uint32_t j = 0; j < period; ++j) {
      loop_base_[j] = it0[j];
      loop_delta_[j] = static_cast<int64_t>(it1[j].addr) - static_cast<int64_t>(it0[j].addr);
    }
    loop_active_ = true;
    loop_period_ = period;
    loop_phase_ = 0;
    loop_iters_ = 3;
    window_.clear();
    return true;
  }
  return false;
}

void TraceRecorder::FlushLoop() {
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kControl) |
                     static_cast<uint8_t>(ControlSub::kLoopRun) << 3);
  PutVarint(scratch_, loop_period_);
  PutVarint(scratch_, loop_iters_);
  uint32_t prev = last_addr_;
  for (uint32_t j = 0; j < loop_period_; ++j) {
    const AccessDesc& b = loop_base_[j];
    const uint8_t tag = SizeTagOf(b.size);
    scratch_.push_back(static_cast<uint8_t>((b.klass & 3u) | tag << 2 |
                                            (b.count > 1 ? 1u << 5 : 0u)));
    PutZigZag(scratch_, static_cast<int64_t>(b.addr) - static_cast<int64_t>(prev));
    PutZigZag(scratch_, loop_delta_[j]);
    if (b.count > 1) {
      PutZigZag(scratch_, b.stride);
      PutVarint(scratch_, b.count);
    }
    if (tag == 0) {
      PutVarint(scratch_, b.size);
    }
    prev = b.addr;
  }
  EmitEvent(scratch_);
  const AccessDesc& lastp = loop_base_[loop_period_ - 1];
  last_addr_ = static_cast<uint32_t>(
      static_cast<int64_t>(lastp.addr) +
      loop_delta_[loop_period_ - 1] * static_cast<int64_t>(loop_iters_ - 1) +
      lastp.stride * static_cast<int64_t>(lastp.count - 1));
  // Phases already matched in the unfinished final iteration replay as
  // plain events after the loop.
  const uint32_t partial = loop_phase_;
  const uint64_t n = loop_iters_;
  loop_active_ = false;
  loop_phase_ = 0;
  for (uint32_t j = 0; j < partial; ++j) {
    AccessDesc d = loop_base_[j];
    d.addr = static_cast<uint32_t>(static_cast<int64_t>(d.addr) +
                                   loop_delta_[j] * static_cast<int64_t>(n));
    EmitDesc(d);
  }
}

void TraceRecorder::FlushAccessStream() {
  FlushRun();
  if (loop_active_) {
    FlushLoop();
  }
  for (const AccessDesc& d : window_) {
    EmitDesc(d);
  }
  window_.clear();
}

void TraceRecorder::FlushCpuDeltas(uint32_t cpu) {
  CpuTrack& track = tracks_[cpu];
  const PerfCounters& c = *track.events;
  CpuDelta d;
  d.alu = c.alu_ops - track.snap.alu;
  d.branches = c.branches - track.snap.branches;
  d.fp = c.fp_ops - track.snap.fp;
  d.calls = c.calls - track.snap.calls;
  d.syscalls = c.syscalls - track.snap.syscalls;
  d.bounds_checks = c.bounds_checks - track.snap.bounds_checks;
  d.bounds_violations = c.bounds_violations - track.snap.bounds_violations;
  d.raw_cycles = track.pending_raw;
  if (d.Empty() && track.pending_ecalls == 0) {
    return;
  }
  track.snap = {c.alu_ops,  c.branches,      c.fp_ops,
                c.calls,    c.syscalls,      c.bounds_checks,
                c.bounds_violations};
  track.pending_raw = 0;

  if (!d.Empty()) {
    uint8_t mask = 0;
    const uint64_t fields[8] = {d.alu,      d.branches,      d.fp,
                                d.calls,    d.syscalls,      d.bounds_checks,
                                d.bounds_violations, d.raw_cycles};
    for (int i = 0; i < 8; ++i) {
      if (fields[i] != 0) {
        mask |= static_cast<uint8_t>(1u << i);
      }
    }
    scratch_.clear();
    scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kCpuDelta));
    scratch_.push_back(mask);
    for (int i = 0; i < 8; ++i) {
      if (fields[i] != 0) {
        PutVarint(scratch_, fields[i]);
      }
    }
    EmitEvent(scratch_);
  }
  if (track.pending_ecalls != 0) {
    scratch_.clear();
    scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kControl) |
                       static_cast<uint8_t>(ControlSub::kEcall) << 3);
    PutVarint(scratch_, track.pending_ecalls);
    EmitEvent(scratch_);
    track.pending_ecalls = 0;
  }
}

void TraceRecorder::OnCommit(uint32_t cpu, uint32_t first_page, uint32_t count) {
  // Pass-through: a commit's replay effect (minor-fault pricing on this cpu)
  // commutes with access events, so it does not flush the pattern detector —
  // page-touching loops keep coalescing across it.
  SwitchTo(cpu);
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kCommit));
  PutZigZag(scratch_,
            static_cast<int64_t>(first_page) - static_cast<int64_t>(last_page_));
  PutVarint(scratch_, count);
  EmitEvent(scratch_);
  last_page_ = first_page + count - 1;
}

void TraceRecorder::OnDecommit(uint32_t first_page, uint32_t count) {
  // Decommit invalidates EPC residency: its order against accesses matters,
  // so it is a hard barrier.
  FlushAccessStream();
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kDecommit));
  PutZigZag(scratch_,
            static_cast<int64_t>(first_page) - static_cast<int64_t>(last_page_));
  PutVarint(scratch_, count);
  EmitEvent(scratch_);
  last_page_ = first_page + count - 1;
}

void TraceRecorder::OnParallelBegin(uint32_t caller_cpu, uint32_t nthreads) {
  SwitchTo(caller_cpu);
  FlushAccessStream();
  FlushCpuDeltas(caller_cpu);
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kParallel) |
                     static_cast<uint8_t>(ParallelSub::kBegin) << 3);
  PutVarint(scratch_, nthreads);
  EmitEvent(scratch_);
  parallel_callers_.push_back(caller_cpu);
}

void TraceRecorder::OnWorkerBegin(uint32_t cpu) {
  FlushAccessStream();
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kParallel) |
                     static_cast<uint8_t>(ParallelSub::kWorkerBegin) << 3);
  PutVarint(scratch_, cpu);
  EmitEvent(scratch_);
  current_cpu_ = cpu;
}

void TraceRecorder::OnWorkerEnd(uint32_t cpu) {
  SwitchTo(cpu);
  FlushAccessStream();
  FlushCpuDeltas(cpu);
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kParallel) |
                     static_cast<uint8_t>(ParallelSub::kWorkerEnd) << 3);
  EmitEvent(scratch_);
}

void TraceRecorder::OnParallelEnd(uint32_t caller_cpu, uint64_t spawn_cycles) {
  FlushAccessStream();
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kParallel) |
                     static_cast<uint8_t>(ParallelSub::kEnd) << 3);
  PutVarint(scratch_, spawn_cycles);
  EmitEvent(scratch_);
  // The decoder pops its region stack here; mirror it.
  CHECK(!parallel_callers_.empty());
  CHECK_EQ(parallel_callers_.back(), caller_cpu);
  parallel_callers_.pop_back();
  current_cpu_ = caller_cpu;
}

void TraceRecorder::OnAlloc(uint32_t cpu, uint32_t addr, uint32_t size) {
  // Markers are replay-ignored annotations: pass-through keeps per-iteration
  // alloc/free markers from breaking loop coalescing.
  SwitchTo(cpu);
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kMarker) |
                     static_cast<uint8_t>(MarkerSub::kAlloc) << 3);
  PutZigZag(scratch_, static_cast<int64_t>(addr) - static_cast<int64_t>(last_addr_));
  PutVarint(scratch_, size);
  EmitEvent(scratch_);
  last_addr_ = addr;
}

void TraceRecorder::OnFree(uint32_t cpu, uint32_t addr) {
  SwitchTo(cpu);
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kMarker) |
                     static_cast<uint8_t>(MarkerSub::kFree) << 3);
  PutZigZag(scratch_, static_cast<int64_t>(addr) - static_cast<int64_t>(last_addr_));
  EmitEvent(scratch_);
  last_addr_ = addr;
}

void TraceRecorder::OnEpoch(uint32_t cpu, uint32_t id) {
  SwitchTo(cpu);
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kMarker) |
                     static_cast<uint8_t>(MarkerSub::kEpoch) << 3);
  PutVarint(scratch_, id);
  EmitEvent(scratch_);
}

void TraceRecorder::Finalize(const Outcome& outcome) {
  CHECK(begun_);
  CHECK(!finalized_);
  FlushAccessStream();
  for (uint32_t cpu = 0; cpu < tracks_.size(); ++cpu) {
    CpuTrack& track = tracks_[cpu];
    const PerfCounters& c = *track.events;
    const bool dirty = c.alu_ops != track.snap.alu || c.branches != track.snap.branches ||
                       c.fp_ops != track.snap.fp || c.calls != track.snap.calls ||
                       c.syscalls != track.snap.syscalls ||
                       c.bounds_checks != track.snap.bounds_checks ||
                       c.bounds_violations != track.snap.bounds_violations ||
                       track.pending_raw != 0 || track.pending_ecalls != 0;
    if (dirty) {
      SwitchTo(cpu);
      FlushCpuDeltas(cpu);
    }
  }
  scratch_.clear();
  scratch_.push_back(static_cast<uint8_t>(TraceEventKind::kControl) |
                     static_cast<uint8_t>(ControlSub::kEnd) << 3);
  EmitEvent(scratch_);

  trace_.summary.event_count = event_count_;
  trace_.summary.stream_hash = hash_;
  trace_.summary.cpu_count = static_cast<uint32_t>(tracks_.size());
  trace_.summary.truncated = truncated_ ? 1 : 0;
  trace_.summary.crashed = outcome.crashed ? 1 : 0;
  trace_.summary.trap_kind = outcome.trap_kind;
  trace_.summary.live_cycles = outcome.live_cycles;
  trace_.summary.peak_vm_bytes = outcome.peak_vm_bytes;
  trace_.summary.mpx_bt_count = outcome.mpx_bt_count;
  // Bound the trap message before it enters the trace summary: .sgxtrace
  // files must not grow with whatever detail string a trap carried.
  constexpr size_t kMaxTrapMessageBytes = 256;
  trace_.summary.trap_message = outcome.trap_message.substr(0, kMaxTrapMessageBytes);
  finalized_ = true;
}

Trace TraceRecorder::TakeTrace() {
  CHECK(finalized_);
  return std::move(trace_);
}

}  // namespace sgxb
