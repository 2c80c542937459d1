// Trap recovery: classify / contain / retry.
//
// RunWithPolicy historically was one-shot catch-and-die: the first SimTrap
// ends the run. This layer upgrades that into a recovery loop a service-style
// workload opts into per request:
//
//   env.Serve([&] { ... one request ... })
//
// State machine per request:
//
//   serve -> trap? -- no --> done (request served)
//             |
//             v classify
//   transient (kOutOfMemory) --> retry with doubled simulated-cycle backoff,
//             |                  up to max_retries, then contain
//             v otherwise
//   containable --> drop the request, count it, keep serving
//
// A cycle-budget watchdog bounds the whole attempt chain: when a request
// (including its retries and backoff) exceeds request_cycle_budget simulated
// cycles, the trap is rethrown and the run dies — a runaway recovery loop
// must not masquerade as graceful degradation.

#ifndef SGXBOUNDS_SRC_POLICY_RECOVERY_H_
#define SGXBOUNDS_SRC_POLICY_RECOVERY_H_

#include <cstdint>
#include <utility>

#include "src/enclave/trap.h"
#include "src/sim/machine.h"

namespace sgxb {

enum class TrapClass : uint8_t {
  kTransient,    // worth retrying (allocation failure under pressure)
  kContainable,  // drop the request, keep the service alive
};

inline TrapClass ClassifyTrap(TrapKind kind) {
  return kind == TrapKind::kOutOfMemory ? TrapClass::kTransient : TrapClass::kContainable;
}

// Shard-level view of a contained trap, for fleet supervisors (src/farm):
// does one dropped request say anything about the *shard*?
enum class ShardImpact : uint8_t {
  // Isolated per-request failure (transient allocation pressure): drop or
  // retry the request, never indict the shard.
  kRequestOnly,
  // A safety violation the policy contained (bounds trap, poisoned
  // metadata, overlay exhaustion): repeated occurrences indict the shard —
  // each one counts toward the supervisor's consecutive-failure conviction
  // threshold, after which the shard is restarted or failed over.
  kSuspectShard,
};

inline ShardImpact ClassifyShardImpact(TrapKind kind) {
  return ClassifyTrap(kind) == TrapClass::kTransient ? ShardImpact::kRequestOnly
                                                     : ShardImpact::kSuspectShard;
}

struct RecoveryConfig {
  // Off by default: traps propagate exactly as before this layer existed.
  bool enabled = false;
  // Retry budget for transient traps, per request.
  uint32_t max_retries = 3;
  // Simulated-cycle backoff before the first retry; doubles per attempt.
  uint64_t backoff_cycles = 10000;
  // Watchdog: max simulated cycles one request may consume across all its
  // attempts before its trap is rethrown as fatal. 0 disables the watchdog.
  uint64_t request_cycle_budget = 0;
};

struct RecoveryStats {
  uint64_t requests = 0;        // Serve() calls
  uint64_t contained = 0;       // requests dropped after a trap
  uint64_t retried = 0;         // retry attempts issued
  uint64_t recovered = 0;       // requests that succeeded after >= 1 retry
  uint64_t watchdog_kills = 0;  // requests whose trap was rethrown on budget
  uint64_t trap_by_kind[kTrapKindCount] = {};

  RecoveryStats& operator+=(const RecoveryStats& other) {
    requests += other.requests;
    contained += other.contained;
    retried += other.retried;
    recovered += other.recovered;
    watchdog_kills += other.watchdog_kills;
    for (uint32_t i = 0; i < kTrapKindCount; ++i) {
      trap_by_kind[i] += other.trap_by_kind[i];
    }
    return *this;
  }

  uint64_t total_traps() const {
    uint64_t total = 0;
    for (uint32_t i = 0; i < kTrapKindCount; ++i) {
      total += trap_by_kind[i];
    }
    return total;
  }
};

class RecoveryControl {
 public:
  explicit RecoveryControl(const RecoveryConfig& config) : config_(config) {}

  // Runs `fn` as one contained request. Returns true when the request was
  // served (possibly after retries), false when it was dropped. Rethrows the
  // trap when recovery is disabled or the watchdog budget is exhausted.
  template <typename Fn>
  bool Serve(Cpu& cpu, Fn&& fn) {
    ++stats_.requests;
    const uint64_t start_cycles = cpu.cycles();
    uint64_t backoff = config_.backoff_cycles;
    uint32_t attempt = 0;
    for (;;) {
      try {
        fn();
        if (attempt > 0) {
          ++stats_.recovered;
        }
        return true;
      } catch (const SimTrap& trap) {
        ++stats_.trap_by_kind[static_cast<uint8_t>(trap.kind())];
        last_trap_ = trap.kind();
        has_trap_ = true;
        if (!config_.enabled) {
          throw;
        }
        const uint64_t spent = cpu.cycles() - start_cycles;
        if (config_.request_cycle_budget != 0 && spent > config_.request_cycle_budget) {
          ++stats_.watchdog_kills;
          throw;
        }
        if (ClassifyTrap(trap.kind()) == TrapClass::kTransient &&
            attempt < config_.max_retries) {
          ++attempt;
          ++stats_.retried;
          cpu.Charge(backoff);  // simulated wait before the retry
          backoff *= 2;
          continue;
        }
        ++stats_.contained;
        return false;
      }
    }
  }

  const RecoveryConfig& config() const { return config_; }
  const RecoveryStats& stats() const { return stats_; }

  // Kind of the most recent trap any Serve() caught (valid once has_trap());
  // lets a caller that just saw Serve() == false map the drop to a
  // ShardImpact without threading the exception out.
  bool has_trap() const { return has_trap_; }
  TrapKind last_trap() const { return last_trap_; }

 private:
  RecoveryConfig config_;
  RecoveryStats stats_;
  TrapKind last_trap_ = TrapKind::kSegFault;
  bool has_trap_ = false;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_RECOVERY_H_
