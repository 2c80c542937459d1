// Workload-level record/replay helpers: glue between the trace subsystem and
// the workload registry, used by bench/trace_tool and the replay-backed
// sweep modes of the figure drivers.

#ifndef SGXBOUNDS_SRC_TRACE_RECORD_H_
#define SGXBOUNDS_SRC_TRACE_RECORD_H_

#include <string>
#include <utility>

#include "src/trace/trace_recorder.h"
#include "src/trace/trace_replay.h"
#include "src/workloads/workload.h"

namespace sgxb {

struct RecordedRun {
  Trace trace;
  RunResult live;  // the recording run's own result
};

// Executes `info` once under `kind` on the machine in `spec`, recording the
// event stream. The returned trace identifies the workload as
// "<name>/<size-class>".
inline RecordedRun RecordWorkloadRun(const WorkloadInfo& info, PolicyKind kind,
                                     const MachineSpec& spec, const PolicyOptions& options,
                                     const WorkloadConfig& cfg, std::string note = "") {
  TraceRecorder recorder(info.name + "/" + SizeClassName(cfg.size), std::move(note));
  MachineSpec traced = spec;
  traced.trace = &recorder;
  RecordedRun out;
  out.live = info.run(kind, traced, options, cfg);
  out.trace = recorder.TakeTrace();
  return out;
}

// Presents a replay outcome in live-run clothing so the figure drivers'
// table printers work unchanged on replayed data.
inline RunResult ToRunResult(const ReplayResult& replay, const TraceHeader& header,
                             const TraceSummary& summary) {
  RunResult out;
  out.kind = static_cast<PolicyKind>(header.policy);
  out.cycles = replay.cycles;
  out.peak_vm_bytes = replay.peak_vm_bytes;
  out.counters = replay.counters;
  out.crashed = replay.crashed;
  out.trap = static_cast<TrapKind>(replay.trap_kind);
  out.trap_message = summary.trap_message;
  out.mpx_bt_count = replay.mpx_bt_count;
  return out;
}

// DecodedTrace carries the same header/summary; used by the sweep-backed
// figure modes (src/trace/sweep.h).
inline RunResult ToRunResult(const ReplayResult& replay, const DecodedTrace& trace) {
  return ToRunResult(replay, trace.header(), trace.summary());
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_RECORD_H_
