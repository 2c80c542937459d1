// Fault tolerance for the enclave farm: supervisor, client-side robustness,
// and the availability report (the fleet-scale analogue of the paper's §3.4
// per-enclave tolerance story).
//
// The farm's phase A measures per-request service demands in each shard's
// enclave; ResilientTiming is the farm's one phase-B timing pass, a
// discrete-event simulation in which shards may fail. Inputs are the
// measured demands, a ShardFaultPlan (src/fault/shard_fault.h) of crash/hang
// events pinned to request-dispatch counts, and a RecoveryMode:
//
//   failstop        - no supervisor action: a dead shard stays dead, its ring
//                     points stay, its keyspace times out for the rest of the
//                     run. The paper's "memory-safety fault = crash" baseline
//                     lifted to fleet scale.
//   restart         - the supervisor detects the failure after a watchdog
//                     deadline (health probes time out), cold-restarts the
//                     enclave, and charges the warm-up from the cost model;
//                     the ring never changes.
//   failover        - detection removes exactly the victim's ring points:
//                     bounded key movement (ring.h) remigrates only its
//                     keyspace onto survivors; the shard never returns.
//   failover+hedge  - failover plus client-side hedged requests: if the
//                     primary attempt has not completed after hedge_delay,
//                     a duplicate is issued to the next distinct ring shard
//                     and the first completion wins.
//
// Client-side robustness applies in every mode: a per-attempt timeout, then
// capped exponential backoff with seeded jitter for up to max_retries
// re-dispatches through the *current* ring (so post-failover retries land on
// survivors). Every decision — fault points, detection instants, backoff
// draws, hedge targets — is a pure function of (plan, config, load seed):
// the whole pass is sequential and bit-identical at any --bench_threads.
// Same-instant events resolve by one rule: non-arrivals first in push order
// (so a completion beats its own deadline), then arrivals by client id
// (closed loop) or request index (open loop). Events pop from a merge of
// sources each already sorted under that rule: one completion FIFO per
// shard (free_at never falls within one incarnation; a crash or restart
// empties it, since its work dies with the incarnation), a deadline FIFO
// and a hedge FIFO (pushed at t + const), a heap of arrivals, and a heap of
// the rest (jittered retries, detections, restarts). The least head is the
// event a single heap would pop, so results match it byte for byte. Fair
// weather is the pass's fault-free case: failstop, an empty plan and
// kNoDeadline leave plain FCFS queueing per shard, which RunFarm runs when
// resilience is off.
//
// The supervisor has a second, request-count conviction path: contained
// traps whose ShardImpact (src/policy/recovery.h) is kSuspectShard bump a
// per-shard consecutive-failure counter; crossing sick_threshold convicts
// the shard (poisoned-metadata shards get recovered without ever missing a
// health probe). Successes reset the counter.

#ifndef SGXBOUNDS_SRC_FARM_RESILIENCE_H_
#define SGXBOUNDS_SRC_FARM_RESILIENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/farm/load_gen.h"
#include "src/farm/ring.h"
#include "src/fault/shard_fault.h"
#include "src/sim/cost_model.h"

namespace sgxb {

enum class RecoveryMode : uint8_t {
  kFailStop = 0,
  kRestart = 1,
  kFailover = 2,
  kFailoverHedge = 3,
};
inline constexpr uint32_t kRecoveryModeCount = 4;

const char* RecoveryModeName(RecoveryMode mode);
bool ParseRecoveryMode(const std::string& text, RecoveryMode* out);
std::vector<std::string> RecoveryModeChoices();

// request_timeout_cycles value for "the client never gives up": no kTimeout
// is scheduled, so every attempt resolves at its completion. Meant for the
// fault-free pass: an attempt sent to a dead shard would never resolve.
inline constexpr uint64_t kNoDeadline = UINT64_MAX;

struct ResilienceConfig {
  // Off by default: RunFarm still runs ResilientTiming, but fault-free
  // (failstop, no shard faults, kNoDeadline), and keeps neither the report
  // nor the resilience digest mixes, so fair-weather result bytes match the
  // pre-resilience farm.
  bool enabled = false;
  RecoveryMode mode = RecoveryMode::kFailStop;
  ShardFaultPlan shard_faults;

  // Client-side robustness (all modes).
  uint64_t request_timeout_cycles = 400000;  // per-attempt deadline (~111 us);
                                             // kNoDeadline = none
  uint32_t max_retries = 3;                  // re-dispatches after the first attempt
  uint64_t backoff_cycles = 20000;           // first retry backoff; doubles per retry
  uint64_t backoff_cap_cycles = 320000;      // exponential growth cap
  // failover+hedge: duplicate an attempt that has not answered after this
  // long. Set near the p999 of *healthy* latency (~28 us here): a tail-only
  // trigger fires for requests stuck behind a dead/hung shard — the point of
  // hedging — but not for ordinary queueing, which would spiral (hedge adds
  // load, load adds latency, latency adds hedges) once failovers shrink
  // surviving capacity.
  uint64_t hedge_delay_cycles = 100000;

  // Supervisor.
  uint64_t watchdog_cycles = 1000000;  // health-probe deadline convicting a dead
                                       // shard (~278 us); hung shards answer
                                       // probes slowly and take 2x to convict
  uint32_t sick_threshold = 8;         // consecutive suspect drops convicting a shard
  uint64_t hang_slowdown = 8;          // service-demand multiplier on a hung shard
  // Cold-restart warm-up charged on a supervisor restart; 0 derives it from
  // the machine's cost model via RestartWarmupCycles.
  uint64_t restart_warmup_cycles = 0;
};

// Cold enclave re-init priced from the cost table: rebuild the arena's
// first-touch pages, refill one EPC working set through the MEE, and (when
// the transition axis is on) the ECALL storm of re-attaching clients.
// ~0.9 ms at the calibrated table.
inline uint64_t RestartWarmupCycles(const CostModel& costs) {
  return 256ull * costs.minor_fault + 64ull * costs.epc_fault + 100ull * costs.ecall;
}

// Backoff before retry `attempt` (1-based) of `request`: capped exponential
// plus deterministic jitter in [0, backoff/4] drawn from (seed, request,
// attempt) — reproducible bit for bit, desynchronized across requests.
inline uint64_t RetryBackoffCycles(const ResilienceConfig& rc, uint64_t seed,
                                   uint32_t request, uint32_t attempt) {
  const uint32_t shift = attempt > 0 ? attempt - 1 : 0;
  uint64_t backoff = shift >= 40 ? rc.backoff_cap_cycles : rc.backoff_cycles << shift;
  if (backoff > rc.backoff_cap_cycles) {
    backoff = rc.backoff_cap_cycles;
  }
  const uint64_t span = rc.backoff_cycles / 4 + 1;
  const uint64_t jitter = ConsistentHashRing::Mix64(
                              seed ^ 0x9e3779b97f4a7c15ull * (request + 1) ^
                              0xbf58476d1ce4e5b9ull * (attempt + 1)) %
                          span;
  return backoff + jitter;
}

// Per-shard availability over one run.
struct ShardAvailability {
  uint64_t up_cycles = 0;    // alive or hung (responding, possibly slowly)
  uint64_t down_cycles = 0;  // dead or restarting
  uint32_t crashes = 0;
  uint32_t hangs = 0;
  uint32_t restarts = 0;
  bool removed = false;  // failed over out of the ring
  double uptime = 1.0;   // up / (up + down)
};

// The availability/SLO report the fig16 driver emits.
struct ResilienceReport {
  bool enabled = false;

  // Request outcomes. completed + failed_app + failed_timeout = requests.
  uint64_t completed = 0;       // served within some attempt's deadline
  uint64_t failed_app = 0;      // contained app error (dropped, not retried)
  uint64_t failed_timeout = 0;  // every attempt timed out

  // Client-side mechanics.
  uint64_t attempts = 0;           // total dispatches incl. retries + hedges
  uint64_t retries = 0;            // timeout-triggered re-dispatches
  uint64_t hedges = 0;             // hedged duplicates issued
  uint64_t hedge_wins = 0;         // requests resolved by the hedge first
  uint64_t timed_out_attempts = 0; // attempts the client gave up on
  uint64_t wasted_cycles = 0;      // shard work finishing after the client gave up

  // Supervisor mechanics.
  uint64_t detections = 0;   // watchdog deadline convictions
  uint64_t convictions = 0;  // consecutive-suspect-failure convictions
  uint64_t restarts = 0;
  uint64_t failovers = 0;    // ring removals

  // Latency split: a request is "degraded" when dispatched while any
  // in-ring shard was dead/hung/restarting, "healthy" otherwise. Timeouts
  // are recorded via LatencyHistogram::AddTimeout in the matching window.
  LatencyHistogram healthy;
  LatencyHistogram degraded;

  std::vector<ShardAvailability> shards;
  double goodput_rps = 0.0;  // completed / makespan

  // FNV over every counter above + both histogram digests; folded into
  // FarmResult::digest when resilience is on.
  uint64_t digest = 0;
};

// Inputs the resilient timing pass needs from the farm run (phase A).
struct ResilientTimingInput {
  const std::vector<FarmRequest>* reqs = nullptr;
  // Demand oracle: per-request service cycles measured in the request's
  // static-ring shard. The timing pass treats demand as request-intrinsic
  // (every shard is an identical enclave), so re-routed attempts charge the
  // same demand on their new shard.
  const std::vector<uint64_t>* service_cycles = nullptr;
  // Per-request phase-A outcome: 0 = served, 1 = dropped (request-only
  // trap), 2 = dropped (suspect-shard trap; feeds the conviction counter).
  // Outcomes 1 are request-intrinsic and follow the request to any shard;
  // outcome 2 is specific to the request's phase-A shard (poisoned metadata)
  // and clears when an attempt is re-routed elsewhere.
  const std::vector<uint8_t>* outcome = nullptr;
  // Static-ring shard each request was measured on in phase A.
  const std::vector<uint32_t>* primary_shard = nullptr;
  bool open_loop = false;
  double offered_rps = 0.0;
  double ghz = 3.6;
  uint64_t think_cycles = 0;
  uint32_t clients = 1;
  uint64_t seed = 42;
};

// Runs the fault-tolerant discrete-event timing pass over measured demands.
// `ring` is taken by value: failover mutates the copy. Fills `report`, the
// overall `latency` histogram, and the served/dropped totals; returns the
// makespan in simulated cycles. Sequential and deterministic.
uint64_t ResilientTiming(const ResilientTimingInput& in, const ResilienceConfig& rc,
                         ConsistentHashRing ring, ResilienceReport* report,
                         LatencyHistogram* latency, uint64_t* served, uint64_t* dropped);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_FARM_RESILIENCE_H_
