// Tests for src/farm/resilience: the fault-tolerant farm layer. Pins the
// bit-identity contract (host thread count never changes a resilient result
// byte, every recovery mode produces a distinct pinned digest for the same
// fault campaign), ring failover's bounded key movement, phase-A fault
// containment/classification, the seeded retry-backoff schedule, the
// same-instant event tie rule, and fair weather as the pass's fault-free
// case.

#include <gtest/gtest.h>

#include <set>
#include <vector>

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

}  // namespace
}  // namespace sgxb
