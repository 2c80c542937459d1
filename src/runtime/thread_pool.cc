#include "src/runtime/thread_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace sgxb {

namespace {

// pthread_create + join cost per worker, charged to the spawning thread.
constexpr uint32_t kSpawnCycles = 4500;

}  // namespace

ParallelResult RunParallel(Enclave& enclave, Cpu& caller, uint32_t nthreads,
                           const std::function<void(ThreadCtx&)>& body) {
  CHECK_GT(nthreads, 0u);
  ParallelResult result;
  TraceRecorder* trace = caller.trace();
  if (trace != nullptr) {
    trace->OnParallelBegin(caller.trace_id(), nthreads);
  }
  for (uint32_t tid = 0; tid < nthreads; ++tid) {
    Cpu* cpu = enclave.NewCpu();
    if (trace != nullptr) {
      trace->OnWorkerBegin(cpu->trace_id());
    }
    ThreadCtx ctx{cpu, tid, nthreads};
    body(ctx);
    if (trace != nullptr) {
      trace->OnWorkerEnd(cpu->trace_id());
    }
    const PerfCounters counters = cpu->counters();
    result.makespan_cycles = std::max(result.makespan_cycles, counters.cycles);
    result.combined += counters;
  }
  const uint64_t spawn_cycles = static_cast<uint64_t>(nthreads) * kSpawnCycles;
  if (trace != nullptr) {
    trace->OnParallelEnd(caller.trace_id(), spawn_cycles);
  }
  // Untraced: the replay engine re-derives the makespan from the replayed
  // workers' cycle totals (which depend on the replay configuration), and
  // the spawn cost rides in the parallel-end event.
  caller.ChargeUntraced(result.makespan_cycles + spawn_cycles);
  return result;
}

}  // namespace sgxb
