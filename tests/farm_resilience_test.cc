// Tests for src/farm/resilience: the fault-tolerant farm layer. Pins the
// bit-identity contract (host thread count never changes a resilient result
// byte, every recovery mode produces a distinct pinned digest for the same
// fault campaign), ring failover's bounded key movement, phase-A fault
// containment/classification, the seeded retry-backoff schedule, the
// same-instant event tie rule, fair weather as the pass's fault-free case,
// and a pinned identity grid for the phase-B event order.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/farm/farm.h"
#include "src/farm/resilience.h"
#include "src/farm/ring.h"

namespace sgxb {
namespace {

// Small faulted fleet used by the digest tests: one crash, one hang, one
// poison event against 4 shards, open-loop at moderate utilization.
FarmConfig FaultedConfig(RecoveryMode mode) {
  FarmConfig cfg;
  cfg.app = FarmApp::kKvStore;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 4;
  cfg.load.requests = 4000;
  cfg.open_loop = true;
  cfg.offered_rps = 600000;
  cfg.machine.recovery.enabled = true;
  cfg.resilience.enabled = true;
  cfg.resilience.mode = mode;
  std::string error;
  EXPECT_TRUE(ShardFaultPlan::Parse("crash@1:500,hang@2:1200,poison@0:300;seed=9",
                                    &cfg.resilience.shard_faults, &error))
      << error;
  return cfg;
}

TEST(FarmResilienceTest, DigestInvariantAcrossHostThreads) {
  for (uint32_t m = 0; m < kRecoveryModeCount; ++m) {
    FarmConfig cfg = FaultedConfig(static_cast<RecoveryMode>(m));
    cfg.host_threads = 1;
    const FarmResult ref = RunFarm(cfg);
    EXPECT_TRUE(ref.resilience.enabled);
    for (const uint32_t threads : {4u, 16u}) {
      cfg.host_threads = threads;
      const FarmResult r = RunFarm(cfg);
      EXPECT_EQ(r.digest, ref.digest)
          << RecoveryModeName(cfg.resilience.mode) << " at " << threads
          << " host threads";
      EXPECT_EQ(r.resilience.digest, ref.resilience.digest);
      EXPECT_EQ(r.resilience.completed, ref.resilience.completed);
      EXPECT_EQ(r.makespan_cycles, ref.makespan_cycles);
    }
  }
  // fig16_resilience's defaults (sync transitions, seed 42) on a 4-shard
  // SGXBounds fleet, open loop at 600 krps over 4000 requests, with three
  // sampled shard faults: each recovery mode's digest is pinned.
  const uint64_t pinned[kRecoveryModeCount] = {0x5f219f347e13346dull, 0x5ac912f26e57b65aull,
                                               0xc48c0fb400007e23ull, 0x94c0c86c80f083f1ull};
  FarmConfig cfg;
  cfg.app = FarmApp::kKvStore;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 4;
  cfg.load.requests = 4000;
  cfg.open_loop = true;
  cfg.offered_rps = 600000;
  cfg.machine.costs.EnableTransitions();
  cfg.machine.recovery.enabled = true;
  cfg.resilience.enabled = true;
  cfg.resilience.shard_faults =
      ShardFaultPlan::Sampled(cfg.load.seed, cfg.shards, cfg.load.requests, /*events=*/3);
  for (uint32_t m = 0; m < kRecoveryModeCount; ++m) {
    cfg.resilience.mode = static_cast<RecoveryMode>(m);
    for (const uint32_t threads : {1u, 4u, 16u}) {
      cfg.host_threads = threads;
      EXPECT_EQ(RunFarm(cfg).digest, pinned[m])
          << RecoveryModeName(cfg.resilience.mode) << " at " << threads << " host threads";
    }
  }
}

TEST(FarmResilienceTest, RecoveryModesProduceDistinctOutcomes) {
  // The same fault campaign under different recovery policies must not
  // collapse to one timeline: each mode gets its own digest.
  std::set<uint64_t> digests;
  for (uint32_t m = 0; m < kRecoveryModeCount; ++m) {
    const FarmResult r = RunFarm(FaultedConfig(static_cast<RecoveryMode>(m)));
    digests.insert(r.digest);
  }
  EXPECT_EQ(digests.size(), static_cast<size_t>(kRecoveryModeCount));
}

TEST(FarmResilienceTest, RepeatedRunsBitIdentical) {
  const FarmConfig cfg = FaultedConfig(RecoveryMode::kFailoverHedge);
  const FarmResult a = RunFarm(cfg);
  const FarmResult b = RunFarm(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.resilience.digest, b.resilience.digest);
  EXPECT_EQ(a.resilience.retries, b.resilience.retries);
  EXPECT_EQ(a.resilience.hedges, b.resilience.hedges);
}

TEST(FarmResilienceTest, SupervisorActsPerMode) {
  // Crash + hang: failstop never reacts; restart restarts; failover removes.
  const FarmResult stop = RunFarm(FaultedConfig(RecoveryMode::kFailStop));
  EXPECT_EQ(stop.resilience.detections, 0u);
  EXPECT_EQ(stop.resilience.restarts, 0u);
  EXPECT_EQ(stop.resilience.failovers, 0u);
  EXPECT_GT(stop.resilience.failed_timeout, 0u) << "dead shard with no recovery";

  const FarmResult restart = RunFarm(FaultedConfig(RecoveryMode::kRestart));
  EXPECT_GT(restart.resilience.detections, 0u);
  EXPECT_GT(restart.resilience.restarts, 0u);
  EXPECT_EQ(restart.resilience.failovers, 0u);

  const FarmResult failover = RunFarm(FaultedConfig(RecoveryMode::kFailover));
  EXPECT_GT(failover.resilience.detections, 0u);
  EXPECT_EQ(failover.resilience.restarts, 0u);
  EXPECT_GT(failover.resilience.failovers, 0u);
  EXPECT_GT(failover.resilience.completed, stop.resilience.completed);
}

TEST(FarmResilienceTest, FailoverMovesOnlyVictimKeys) {
  // Ring rebalance on shard removal: keys the victim did not own keep their
  // owner, and every key the victim owned lands on a survivor.
  ConsistentHashRing before(8, 64);
  ConsistentHashRing after(8, 64);
  constexpr uint32_t kVictim = 3;
  ASSERT_TRUE(after.RemoveShard(kVictim));
  EXPECT_EQ(after.live_shards(), 7u);
  uint64_t moved = 0;
  for (uint64_t key = 0; key < 50000; ++key) {
    const uint32_t s0 = before.Route(key);
    const uint32_t s1 = after.Route(key);
    if (s0 != kVictim) {
      EXPECT_EQ(s1, s0) << "key " << key << " moved without owning the victim";
    } else {
      EXPECT_NE(s1, kVictim);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(FarmResilienceTest, PhaseAFaultContainedAndClassified) {
  // A poisoned-metadata event is a real phase-A injection into the victim
  // shard's enclave: the per-request recovery layer contains the trap,
  // classifies it, and the farm survives to report it. memcached re-reads
  // cached objects, so a flipped LB footer reliably trips bounds checks on
  // later requests (kvstore rewrites values too often to keep the victim
  // object live).
  FarmConfig cfg;
  cfg.app = FarmApp::kMemcached;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 2;
  cfg.load.requests = 4000;
  cfg.load.keyspace = 16;
  cfg.machine.recovery.enabled = true;
  cfg.resilience.enabled = true;
  cfg.resilience.mode = RecoveryMode::kFailover;
  // Poison only trips requests touching the corrupted keys, so suspect drops
  // interleave with successes; convict on the first one rather than waiting
  // for a consecutive run that key mixing never produces.
  cfg.resilience.sick_threshold = 1;
  std::string error;
  ASSERT_TRUE(ShardFaultPlan::Parse(
      "poison@0:100,poison@0:200,poison@0:300,poison@1:500;seed=5",
      &cfg.resilience.shard_faults, &error))
      << error;
  const FarmResult r = RunFarm(cfg);
  EXPECT_GT(r.fault_totals.total_injected(), 0u) << "injection never fired";
  EXPECT_GT(r.recovery_totals.total_traps(), 0u) << "trap not observed";
  EXPECT_GT(r.recovery_totals.contained, 0u) << "trap not contained";
  // Suspect drops feed the supervisor's conviction counter; a persistently
  // poisoned shard gets convicted and failed over.
  EXPECT_GT(r.resilience.convictions, 0u);
  EXPECT_GT(r.resilience.failovers, 0u);
  // The faulted requests surface as suspect drops in the phase-A view, never
  // as a simulator crash.
  uint64_t dropped = 0;
  for (const FarmShardStats& s : r.shards) {
    EXPECT_FALSE(s.crashed);
    dropped += s.dropped;
  }
  EXPECT_GT(dropped, 0u);
}

TEST(FarmResilienceTest, RetryBackoffReproducibleFromSeed) {
  ResilienceConfig rc;
  // Same (seed, request, attempt) -> same delay, always.
  for (uint32_t req = 0; req < 64; ++req) {
    for (uint32_t attempt = 1; attempt <= rc.max_retries; ++attempt) {
      EXPECT_EQ(RetryBackoffCycles(rc, 42, req, attempt),
                RetryBackoffCycles(rc, 42, req, attempt));
    }
  }
  // Different seeds or requests decorrelate the jitter.
  EXPECT_NE(RetryBackoffCycles(rc, 42, 7, 1), RetryBackoffCycles(rc, 43, 7, 1));
  // Exponential base: attempt k sits in [base<<(k-1), base<<(k-1) + jitter).
  const uint64_t jitter_span = rc.backoff_cycles / 4 + 1;
  for (uint32_t attempt = 1; attempt <= 3; ++attempt) {
    const uint64_t base = rc.backoff_cycles << (attempt - 1);
    const uint64_t d = RetryBackoffCycles(rc, 42, 11, attempt);
    EXPECT_GE(d, base);
    EXPECT_LT(d, base + jitter_span);
  }
  // The exponential growth caps.
  const uint64_t deep = RetryBackoffCycles(rc, 42, 11, 30);
  EXPECT_GE(deep, rc.backoff_cap_cycles);
  EXPECT_LT(deep, rc.backoff_cap_cycles + jitter_span);
}

TEST(FarmResilienceTest, FairWeatherReportStaysZero) {
  // Resilience off: the report must stay inert and the digest must not mix
  // any resilience state (zero-cost-when-off).
  FarmConfig cfg;
  cfg.app = FarmApp::kKvStore;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 2;
  cfg.load.requests = 1000;
  const FarmResult r = RunFarm(cfg);
  EXPECT_FALSE(r.resilience.enabled);
  EXPECT_EQ(r.resilience.attempts, 0u);
  EXPECT_EQ(r.resilience.digest, 0u);
  EXPECT_EQ(r.fault_totals.total_injected(), 0u);
  EXPECT_EQ(r.served, 1000u);
}

TEST(FarmResilienceTest, EnclaveDeathDropsTheUnmeasuredTail) {
  // Recovery off: the injected allocation failure kills every shard's
  // enclave mid-stream. The killed request and every request after it on that shard
  // are dropped — in the shard view and in phase B alike.
  FarmConfig cfg;
  cfg.app = FarmApp::kKvStore;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.shards = 4;
  cfg.load.requests = 2000;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("alloc_fail@alloc:50", &cfg.faults, &error)) << error;
  const FarmResult r = RunFarm(cfg);
  uint64_t served = 0;
  uint64_t dropped = 0;
  bool any_crashed = false;
  for (const FarmShardStats& s : r.shards) {
    EXPECT_EQ(s.served + s.dropped, s.requests);
    served += s.served;
    dropped += s.dropped;
    any_crashed = any_crashed || s.crashed;
  }
  ASSERT_TRUE(any_crashed) << "no shard died; the campaign no longer traps";
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(r.served, served);
  EXPECT_EQ(r.dropped, dropped);
  EXPECT_EQ(r.latency.count(), served);
}

// Runs the fault-free pass (failstop, no shard faults, no deadline) over a
// scripted closed-loop stream with zero think time: request order within a
// client is its index order, every request served.
LatencyHistogram ScriptedClosedLoop(const ConsistentHashRing& ring,
                                    const std::vector<FarmRequest>& reqs,
                                    const std::vector<uint64_t>& svc, uint32_t clients,
                                    uint64_t* makespan) {
  const std::vector<uint8_t> outcome(reqs.size(), 0);
  std::vector<uint32_t> primary;
  for (const FarmRequest& r : reqs) {
    primary.push_back(ring.Route(r.key));
  }
  ResilientTimingInput in;
  in.reqs = &reqs;
  in.service_cycles = &svc;
  in.outcome = &outcome;
  in.primary_shard = &primary;
  in.clients = clients;
  ResilienceConfig rc;
  rc.request_timeout_cycles = kNoDeadline;
  ResilienceReport report;
  LatencyHistogram latency;
  uint64_t served = 0;
  uint64_t dropped = 0;
  *makespan = ResilientTiming(in, rc, ring, &report, &latency, &served, &dropped);
  EXPECT_EQ(served, reqs.size());
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(report.attempts, reqs.size());
  return latency;
}

uint64_t KeyOnShard(const ConsistentHashRing& ring, uint32_t shard) {
  uint64_t key = 0;
  while (ring.Route(key) != shard) {
    ++key;
  }
  return key;
}

TEST(FarmResilienceTest, CompletionPopsBeforeSameInstantArrival) {
  // One shard. Client 0's first request costs nothing, so it completes at
  // t=0 while client 1's first arrival (pushed earlier) waits at t=0. The
  // completion pops first and issues client 0's next request at t=0, which
  // then wins the same-instant arrival tie on client id.
  const ConsistentHashRing ring(1, 64);
  const std::vector<FarmRequest> reqs = {{7, 0}, {7, 1}, {7, 0}};
  const std::vector<uint64_t> svc = {0, 10, 100};
  uint64_t makespan = 0;
  const LatencyHistogram latency = ScriptedClosedLoop(ring, reqs, svc, 2, &makespan);
  LatencyHistogram expected;
  expected.Add(0);    // client 0, first request
  expected.Add(100);  // client 0, second request: dispatched before client 1
  expected.Add(110);  // client 1 queues behind it
  EXPECT_EQ(latency.Digest(), expected.Digest());
  EXPECT_EQ(makespan, 110u);
}

TEST(FarmResilienceTest, SameInstantArrivalsDispatchInClientIdOrder) {
  // Two shards. Client 1's first request (shard 1) and client 0's second
  // (shard 0) both complete at t=50, client 1's completion pushed first. Both
  // clients' next requests go to shard 0 at t=50: client 0 must dispatch
  // first despite the later push.
  const ConsistentHashRing ring(2, 64);
  const uint64_t on0 = KeyOnShard(ring, 0);
  const uint64_t on1 = KeyOnShard(ring, 1);
  const std::vector<FarmRequest> reqs = {
      {on0, 0}, {on1, 1}, {on0, 0}, {on0, 0}, {on0, 1}};
  const std::vector<uint64_t> svc = {20, 50, 30, 100, 10};
  uint64_t makespan = 0;
  const LatencyHistogram latency = ScriptedClosedLoop(ring, reqs, svc, 2, &makespan);
  LatencyHistogram expected;
  for (const uint64_t lat : {20u, 50u, 30u, 100u, 110u}) {
    expected.Add(lat);
  }
  EXPECT_EQ(latency.Digest(), expected.Digest());
  EXPECT_EQ(latency.min(), 20u) << "client 1 dispatched ahead of client 0";
  EXPECT_EQ(makespan, 160u);
}

TEST(FarmResilienceTest, FaultFreeResilientMatchesResilienceOff) {
  // Resilience off runs the fault-free case of the same pass; turning it on
  // with failstop, no faults and no deadline must time the fleet the same.
  for (const bool open_loop : {false, true}) {
    FarmConfig off;
    off.shards = 4;
    off.policy = PolicyKind::kSgxBounds;
    off.app = FarmApp::kKvStore;
    off.load.requests = 2000;
    off.load.clients = 8;
    off.open_loop = open_loop;
    off.offered_rps = 600000;
    FarmConfig on = off;
    on.resilience.enabled = true;
    on.resilience.mode = RecoveryMode::kFailStop;
    on.resilience.request_timeout_cycles = kNoDeadline;
    const FarmResult a = RunFarm(off);
    const FarmResult b = RunFarm(on);
    EXPECT_TRUE(b.resilience.enabled);
    EXPECT_EQ(b.resilience.failed_timeout, 0u);
    EXPECT_EQ(a.latency.Digest(), b.latency.Digest()) << "open_loop=" << open_loop;
    EXPECT_EQ(a.makespan_cycles, b.makespan_cycles) << "open_loop=" << open_loop;
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.served + a.dropped, 2000u);
  }
}

// Phase-B identity grid: ResilientTiming called directly on seeded, tie-heavy
// inputs under every recovery mode, closed and open loop. Each cell pins the
// report digest and the makespan that one binary heap over every pending
// event yields (captured with such a queue), so any change to the order
// events pop in (the tie rule, a source out of order, a live completion
// dropped, a stale one kept past a restart) moves some cell.
struct GridInput {
  std::vector<FarmRequest> reqs;
  std::vector<uint64_t> svc;
  std::vector<uint8_t> outcome;
  ResilienceConfig rc;
  std::string faults;
};

struct GridCase {
  const char* name;
  std::function<void(GridInput*)> edit;
};

struct GridCell {
  uint64_t digest;
  uint64_t makespan;
};

constexpr uint32_t kGridShards = 4;

GridInput BaseGridInput() {
  GridInput g;
  LoadGenConfig load;
  load.requests = 600;
  load.keyspace = 64;
  load.key_theta = 0.99;  // one hot shard with a deep FCFS backlog
  load.clients = 8;
  load.seed = 19;
  g.reqs = GenerateRequests(load);
  // Demands, deadlines, backoffs and think time on a 1000-cycle grid, so
  // events of different kinds keep landing on the same instant.
  Rng rng(23);
  for (size_t i = 0; i < g.reqs.size(); ++i) {
    g.svc.push_back(1000 * (1 + rng.NextBounded(8)));
    const uint64_t roll = rng.NextBounded(32);
    g.outcome.push_back(roll == 0 ? 1 : roll < 3 ? 2 : 0);
  }
  g.rc.request_timeout_cycles = 12000;
  g.rc.max_retries = 3;
  g.rc.backoff_cycles = 2000;
  g.rc.backoff_cap_cycles = 16000;
  g.rc.hedge_delay_cycles = 6000;
  g.rc.watchdog_cycles = 20000;
  g.rc.sick_threshold = 3;
  g.rc.hang_slowdown = 4;
  g.rc.restart_warmup_cycles = 5000;
  g.faults = "crash@1:100,hang@2:250";
  return g;
}

const std::vector<GridCase>& GridCases() {
  static const std::vector<GridCase> cases = {
      {"base", [](GridInput*) {}},
      {"zero_demand",
       [](GridInput* g) {
         for (uint64_t& d : g->svc) {
           d = 0;
         }
       }},
      {"demand_equals_deadline",
       [](GridInput* g) {
         for (size_t i = 0; i < g->svc.size(); i += 3) {
           g->svc[i] = g->rc.request_timeout_cycles;
         }
       }},
      {"hedge_delay_zero", [](GridInput* g) { g->rc.hedge_delay_cycles = 0; }},
      {"restart_warmup_zero", [](GridInput* g) { g->rc.restart_warmup_cycles = 0; }},
      {"crash_and_hang_same_shard",
       [](GridInput* g) { g->faults = "hang@1:80,crash@1:200,crash@3:150,hang@3:300"; }},
      {"all_but_one_crashed",
       [](GridInput* g) { g->faults = "crash@0:50,crash@1:60,crash@2:70"; }},
      {"restart_completes_before_stale",
       [](GridInput* g) {
         // A hung hot shard queues work at 16x demand; the restart after the
         // (short) watchdog is instant, so the new incarnation's completions
         // land long before the old incarnation's stale ones would have.
         g->rc.hang_slowdown = 16;
         g->rc.watchdog_cycles = 4000;
         g->rc.restart_warmup_cycles = 0;
         g->rc.sick_threshold = 1;
         g->faults = "hang@0:40,hang@1:120,crash@2:200";
       }},
  };
  return cases;
}

// Pinned cells in grid order: case, then closed/open loop, then mode.
constexpr GridCell kPinnedGrid[] = {
    {0x43a35fe331e8692full, 29326000ull},  // base/closed/failstop
    {0x4646da22521cdad1ull, 8095923ull},  // base/closed/restart
    {0x3cf0260d6243880aull, 8095923ull},  // base/closed/failover
    {0x5916c622751f0000ull, 6317697ull},  // base/closed/failover+hedge
    {0x3e2d395e79e43ae6ull, 29620352ull},  // base/open/failstop
    {0x47c177c2d495a218ull, 6444435ull},  // base/open/restart
    {0x06b2a38c6476844dull, 6508899ull},  // base/open/failover
    {0x647dc68676745ed6ull, 7240486ull},  // base/open/failover+hedge
    {0x119a0afe04e8b595ull, 84000ull},  // zero_demand/closed/failstop
    {0x6565b514f9d18d3dull, 98137ull},  // zero_demand/closed/restart
    {0xe1674c62b0163528ull, 84000ull},  // zero_demand/closed/failover
    {0xe1674c62b0163528ull, 84000ull},  // zero_demand/closed/failover+hedge
    {0x1044b0c0f11fa58full, 1027614ull},  // zero_demand/open/failstop
    {0x7b60d8e699791106ull, 1027614ull},  // zero_demand/open/restart
    {0xa9cedfc3e18a8031ull, 1027614ull},  // zero_demand/open/failover
    {0xa9cedfc3e18a8031ull, 1027614ull},  // zero_demand/open/failover+hedge
    {0x3d1dd24ca1b8e608ull, 44907000ull},  // demand_equals_deadline/closed/failstop
    {0xe8d444d69f36092bull, 10138474ull},  // demand_equals_deadline/closed/restart
    {0x9fc26a39c0b9f2bdull, 11282222ull},  // demand_equals_deadline/closed/failover
    {0x6564a427ee33876cull, 11084754ull},  // demand_equals_deadline/closed/failover+hedge
    {0x4801b66703ed1907ull, 45870352ull},  // demand_equals_deadline/open/failstop
    {0xa162d025924161dbull, 9651435ull},  // demand_equals_deadline/open/restart
    {0xcaf7cdd8a5f419fbull, 9741899ull},  // demand_equals_deadline/open/failover
    {0x0945ec52c2e72d99ull, 11233352ull},  // demand_equals_deadline/open/failover+hedge
    {0x43a35fe331e8692full, 29326000ull},  // hedge_delay_zero/closed/failstop
    {0x4646da22521cdad1ull, 8095923ull},  // hedge_delay_zero/closed/restart
    {0x3cf0260d6243880aull, 8095923ull},  // hedge_delay_zero/closed/failover
    {0x9e4e6e6d6a46cf33ull, 6390544ull},  // hedge_delay_zero/closed/failover+hedge
    {0x3e2d395e79e43ae6ull, 29620352ull},  // hedge_delay_zero/open/failstop
    {0x47c177c2d495a218ull, 6444435ull},  // hedge_delay_zero/open/restart
    {0x06b2a38c6476844dull, 6508899ull},  // hedge_delay_zero/open/failover
    {0xe9af7932368a6827ull, 7260352ull},  // hedge_delay_zero/open/failover+hedge
    {0x43a35fe331e8692full, 29326000ull},  // restart_warmup_zero/closed/failstop
    {0x8865575e6e49c851ull, 8095923ull},  // restart_warmup_zero/closed/restart
    {0x3cf0260d6243880aull, 8095923ull},  // restart_warmup_zero/closed/failover
    {0x5916c622751f0000ull, 6317697ull},  // restart_warmup_zero/closed/failover+hedge
    {0x3e2d395e79e43ae6ull, 29620352ull},  // restart_warmup_zero/open/failstop
    {0x9a09b95e8de93afcull, 6508899ull},  // restart_warmup_zero/open/restart
    {0x06b2a38c6476844dull, 6508899ull},  // restart_warmup_zero/open/failover
    {0x647dc68676745ed6ull, 7240486ull},  // restart_warmup_zero/open/failover+hedge
    {0x868a4184f56b6fa7ull, 10438000ull},  // crash_and_hang_same_shard/closed/failstop
    {0xec9abb7d621ad886ull, 9793000ull},  // crash_and_hang_same_shard/closed/restart
    {0x43223d03a47210fcull, 10438000ull},  // crash_and_hang_same_shard/closed/failover
    {0xca3046c015d0a0ceull, 8542000ull},  // crash_and_hang_same_shard/closed/failover+hedge
    {0x6bf64fd91728353aull, 10426352ull},  // crash_and_hang_same_shard/open/failstop
    {0x6f12dbbcaf1ba69full, 10426352ull},  // crash_and_hang_same_shard/open/restart
    {0x48578a41fb306b82ull, 10426352ull},  // crash_and_hang_same_shard/open/failover
    {0xbe4571404532f096ull, 10471352ull},  // crash_and_hang_same_shard/open/failover+hedge
    {0x85b5aacd97c0659dull, 5354610ull},  // all_but_one_crashed/closed/failstop
    {0x0032c68c94a9a3daull, 9238204ull},  // all_but_one_crashed/closed/restart
    {0x0035b39c778d9e0aull, 10250710ull},  // all_but_one_crashed/closed/failover
    {0x489d5c0802d84692ull, 10079682ull},  // all_but_one_crashed/closed/failover+hedge
    {0x56d907a1843429e3ull, 1090478ull},  // all_but_one_crashed/open/failstop
    {0xbcfb56c5b56ffaf3ull, 9505641ull},  // all_but_one_crashed/open/restart
    {0x5c9ade5a9a5a73a6ull, 9937812ull},  // all_but_one_crashed/open/failover
    {0x08760d9bc20bdf99ull, 10123486ull},  // all_but_one_crashed/open/failover+hedge
    {0x83387a978b072846ull, 6336676ull},  // restart_completes_before_stale/closed/failstop
    {0x98674e495a9af29full, 4263587ull},  // restart_completes_before_stale/closed/restart
    {0xbde467764709ed3dull, 10259815ull},  // restart_completes_before_stale/closed/failover
    {0x5ff95e34bf172a92ull, 9921858ull},  // restart_completes_before_stale/closed/failover+hedge
    {0x0cfbcbe2e62863d8ull, 5756640ull},  // restart_completes_before_stale/open/failstop
    {0xcd1d7509e41ed0ecull, 1116436ull},  // restart_completes_before_stale/open/restart
    {0x64e4a874f43b3dbdull, 10614418ull},  // restart_completes_before_stale/open/failover
    {0x6d50864ec26255e0ull, 10643486ull},  // restart_completes_before_stale/open/failover+hedge
};

TEST(FarmResilienceTest, PhaseBIdentityGridMatchesPinnedDigests) {
  const ConsistentHashRing ring(kGridShards, 64);
  std::vector<GridCell> got;
  std::vector<std::string> labels;
  for (const GridCase& c : GridCases()) {
    GridInput g = BaseGridInput();
    c.edit(&g);
    std::vector<uint32_t> primary;
    for (const FarmRequest& r : g.reqs) {
      primary.push_back(ring.Route(r.key));
    }
    std::string error;
    ASSERT_TRUE(ShardFaultPlan::Parse(g.faults, &g.rc.shard_faults, &error)) << error;
    for (const bool open_loop : {false, true}) {
      for (uint32_t m = 0; m < kRecoveryModeCount; ++m) {
        ResilientTimingInput in;
        in.reqs = &g.reqs;
        in.service_cycles = &g.svc;
        in.outcome = &g.outcome;
        in.primary_shard = &primary;
        in.open_loop = open_loop;
        in.offered_rps = 2.0e6;
        in.think_cycles = 1000;
        in.clients = 8;
        in.seed = 31;
        ResilienceConfig rc = g.rc;
        rc.enabled = true;
        rc.mode = static_cast<RecoveryMode>(m);
        ResilienceReport report;
        LatencyHistogram latency;
        uint64_t served = 0;
        uint64_t dropped = 0;
        const uint64_t makespan =
            ResilientTiming(in, rc, ring, &report, &latency, &served, &dropped);
        EXPECT_EQ(served + dropped, g.reqs.size());
        got.push_back({report.digest, makespan});
        labels.push_back(std::string(c.name) + (open_loop ? "/open/" : "/closed/") +
                         RecoveryModeName(rc.mode));
      }
    }
  }
  EXPECT_EQ(got.size(), std::size(kPinnedGrid));
  std::string actual;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i < std::size(kPinnedGrid)) {
      EXPECT_EQ(got[i].digest, kPinnedGrid[i].digest) << labels[i];
      EXPECT_EQ(got[i].makespan, kPinnedGrid[i].makespan) << labels[i];
    }
    char line[128];
    std::snprintf(line, sizeof(line), "    {0x%016llxull, %lluull},  // %s\n",
                  static_cast<unsigned long long>(got[i].digest),
                  static_cast<unsigned long long>(got[i].makespan), labels[i].c_str());
    actual += line;
  }
  if (HasFailure()) {
    ADD_FAILURE() << "actual grid:\n" << actual;
  }
}

}  // namespace
}  // namespace sgxb
