// SweepEngine: decode-once, replay-many across a (trace x SimConfig) grid.
//
// The unit of work is a SweepRequest — one shared DecodedTrace replayed
// under one SimConfig. Run() answers a whole batch, choosing per request the
// cheapest sound tier (see src/trace/trace_replay.h):
//
//   1. duplicate     — a request equal to an earlier one of the same batch
//                      (same stream hash, same full SimConfig) is answered
//                      with that request's result;
//   2. capture       — requests sharing a trace and a cache geometry are
//                      grouped; one ConfigSweeper capture per group answers
//                      every EPC-size / cost-table / enclave-mode variant by
//                      re-pricing (microseconds each);
//   3. full replay   — geometry singletons and capture-ineligible configs
//                      replay the shared decode directly.
//
// Captures and replays fan out over ParallelFor, whose shared index counter
// balances the five-orders-of-magnitude cost spread between a re-pricing
// and a full replay. Results land in slots indexed by request order and
// every tier is bit-identical to a sequential full replay, so the output
// (and anything printed from it) is byte-identical for any thread count.
//
// Duplicates are folded before dispatch, which keeps SweepStats independent
// of the thread count. The fold compares the FULL SimConfig (not a config
// hash): equal keys guarantee equal results, and a hash collision costs a
// bucket probe, never a wrong answer. Nothing is kept between Run() calls:
// every caller builds one engine per grid and runs it once.

#ifndef SGXBOUNDS_SRC_TRACE_SWEEP_H_
#define SGXBOUNDS_SRC_TRACE_SWEEP_H_

#include <cstdint>
#include <vector>

#include "src/trace/decoded_trace.h"
#include "src/trace/trace_replay.h"

namespace sgxb {

struct SweepRequest {
  const DecodedTrace* trace = nullptr;  // borrowed; must outlive Run()
  SimConfig config;
};

struct SweepOptions {
  uint32_t threads = 0;  // 0 = HostHardwareThreads()
};

// Cumulative across Run() calls; deterministic for a given request sequence
// regardless of the thread count.
struct SweepStats {
  uint64_t requests = 0;         // total requests seen
  uint64_t memo_hits = 0;        // in-batch duplicates answered by the fold
  uint64_t captures_built = 0;   // full replays spent building captures
  uint64_t capture_replays = 0;  // requests answered by capture re-pricing
  uint64_t full_replays = 0;     // requests answered by full replay
};

class SweepEngine {
 public:
  explicit SweepEngine(const SweepOptions& options = SweepOptions());

  // Replays every request; out[i] answers requests[i]. Bit-identical to
  // calling ReplayDecoded(*requests[i].trace, requests[i].config) for each.
  std::vector<ReplayResult> Run(const std::vector<SweepRequest>& requests);

  const SweepStats& stats() const { return stats_; }

 private:
  SweepOptions options_;
  SweepStats stats_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_TRACE_SWEEP_H_
