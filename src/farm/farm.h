// Sharded enclave serving farm (paper §6 at fleet scale).
//
// A farm is N independent shards, each a full simulated enclave — its own
// 32-bit arena, EPC, cache hierarchy and policy-instrumented app instance —
// fronted by consistent-hash request routing (src/farm/ring.h) and driven by
// a deterministic load generator (src/farm/load_gen.h).
//
// A run has two phases:
//
//   Phase A (service measurement, host-parallel): each shard executes its
//   routed request subsequence in global-request order inside its own
//   enclave, charging every cost axis the simulator models — including
//   ECALL dispatch and OCALL syscall transitions when the machine spec's
//   cost table enables them — and records per-request service cycles.
//   Shards share no mutable state, so they fan out over
//   ParallelFor with results in shard-indexed slots:
//   bit-identical for any host thread count.
//
//   Phase B (timing, sequential host-side): one discrete-event queueing
//   pass, ResilientTiming (src/farm/resilience.h), replays the measured
//   service demands against the arrival process — open-loop Poisson arrivals
//   at an offered rate, or closed-loop clients with think time — producing
//   per-request latencies (into the mergeable log-bucket histogram), fleet
//   throughput, and a result digest the smoke tests pin across thread
//   counts. With resilience off the pass runs its fault-free case: FCFS per
//   shard, no deadline, same-instant closed-loop clients in client-id order.
//   Its event queue merges sorted sources (per-shard completion FIFOs,
//   deadline and hedge FIFOs, two small heaps), so each event costs the
//   same however deep the backlog grows (resilience.h).

#ifndef SGXBOUNDS_SRC_FARM_FARM_H_
#define SGXBOUNDS_SRC_FARM_FARM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/farm/load_gen.h"
#include "src/farm/resilience.h"
#include "src/policy/run.h"

namespace sgxb {

// Which in-sim app each shard wraps. All five are the §6/§7 services.
enum class FarmApp : uint8_t {
  kKvStore = 0,
  kMemcached = 1,
  kHttpd = 2,
  kNginx = 3,
  kNetserver = 4,
};

const char* FarmAppName(FarmApp app);
bool ParseFarmApp(const std::string& name, FarmApp* out);
std::vector<std::string> FarmAppChoices();

struct FarmConfig {
  uint32_t shards = 4;
  uint32_t vnodes = 64;  // ring points per shard
  PolicyKind policy = PolicyKind::kNative;
  FarmApp app = FarmApp::kKvStore;
  LoadGenConfig load;

  // Arrival process. Closed loop (default): `load.clients` clients, each
  // with one outstanding request plus `think_cycles` between requests.
  // Open loop: Poisson arrivals at `offered_rps` requests/second.
  bool open_loop = false;
  double offered_rps = 0.0;
  uint64_t think_cycles = 0;
  double ghz = 3.6;

  // Host-side parallelism for phase A (0 = HostHardwareThreads()). Never
  // changes any result byte — only wall-clock time.
  uint32_t host_threads = 1;

  // Per-shard machine template: EPC size, enclave mode, cost table
  // (machine.costs.EnableTransitions() turns on the ECALL/OCALL axis),
  // recovery config for per-request containment.
  MachineSpec machine;
  PolicyOptions options;

  // Per-enclave fault campaign (--faults= grammar, src/fault/fault.h),
  // replicated into every shard's enclave with a per-shard reseed so the
  // same plan does not land on identical targets fleet-wide. Empty = none;
  // machine.faults is ignored by the farm (per-shard plans need per-shard
  // lifetime).
  FaultPlan faults;

  // Fault-tolerance layer (src/farm/resilience.h): shard-scoped fault plan,
  // supervisor recovery mode, client timeout/retry/hedging. Disabled by
  // default; when disabled phase B runs fault-free and every result byte
  // matches the pre-resilience farm.
  ResilienceConfig resilience;
};

struct FarmShardStats {
  uint64_t requests = 0;
  // Phase-A measurement outcomes (requests the shard's enclave served vs
  // dropped while demands were measured). The authoritative request outcomes
  // are phase B's FarmResult::served/dropped; fault-free, the two agree.
  uint64_t served = 0;
  uint64_t dropped = 0;
  uint64_t cycles = 0;  // shard main-cpu cycle total (its busy time)
  PerfCounters counters;
  bool crashed = false;
};

struct FarmResult {
  uint64_t served = 0;
  uint64_t dropped = 0;
  // Simulated wall-clock of the whole run: completion time of the last
  // request under the arrival process.
  uint64_t makespan_cycles = 0;
  double throughput_rps = 0.0;
  LatencyHistogram latency;  // served-request latency, simulated cycles
  PerfCounters totals;       // summed over shards
  std::vector<FarmShardStats> shards;
  // Fleet-summed per-enclave fault + recovery accounting (zero unless the
  // config armed faults / enabled recovery).
  FaultStats fault_totals;
  RecoveryStats recovery_totals;
  // Availability report from the timing pass; inert (enabled flag false,
  // counters zero) when the config left resilience off.
  ResilienceReport resilience;
  // FNV digest over shard outcomes + latency histogram + makespan: pinned by
  // the farm smoke test at 1/4/16 host threads. Recovery, fault, and
  // resilience counters are mixed in only when the respective layer is
  // enabled, so fair-weather digests match the pre-resilience farm byte for
  // byte.
  uint64_t digest = 0;
};

FarmResult RunFarm(const FarmConfig& cfg);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_FARM_FARM_H_
