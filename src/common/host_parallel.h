// Host-level parallel dispatch for independent simulations.
//
// The simulator itself is single-threaded by design (see src/sim/machine.h):
// simulated "threads" are modeled deterministically inside one Enclave. What
// IS safely parallel is running *independent* simulations — each (workload,
// policy) run owns its own Enclave, Heap and Cpus and shares no mutable
// state — so the bench drivers fan those out across host threads and join
// results in a deterministic order.
//
//   std::vector<RunResult> out(jobs.size());
//   ParallelFor(jobs.size(), HostHardwareThreads(),
//               [&](size_t i) { out[i] = jobs[i](); });
//
// Results are written into caller-owned slots indexed by job id, so output
// ordering (and therefore every printed table) is byte-identical regardless
// of the thread count.

#ifndef SGXBOUNDS_SRC_COMMON_HOST_PARALLEL_H_
#define SGXBOUNDS_SRC_COMMON_HOST_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sgxb {

// Number of host hardware threads (always >= 1).
uint32_t HostHardwareThreads();

// Invokes fn(0) .. fn(n-1), each exactly once, distributed over up to
// `threads` host threads (clamped to n; <= 1 runs inline). fn must be safe
// to call concurrently for distinct indices. Workers draw indices one at a
// time from a shared counter, so uneven per-index costs (a sweep grid mixes
// microsecond re-pricings with full replays) balance without a fixed
// pre-split. If any invocation throws, the
// first exception (in completion order) is rethrown on the calling thread
// after all workers join; remaining indices may or may not run.
void ParallelFor(size_t n, uint32_t threads, const std::function<void(size_t)>& fn);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_HOST_PARALLEL_H_
