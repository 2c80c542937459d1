// Tests for src/farm: consistent-hash routing invariants, load generator
// determinism, transition-cost gating, and the farm-level bit-identity
// guarantees (host thread count never changes a result byte).

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/farm/farm.h"
#include "src/farm/load_gen.h"
#include "src/farm/ring.h"

namespace sgxb {
namespace {

TEST(RingTest, DeterministicPlacement) {
  const ConsistentHashRing a(8, 64);
  const ConsistentHashRing b(8, 64);
  for (uint64_t key = 0; key < 10000; ++key) {
    EXPECT_EQ(a.Route(key), b.Route(key));
  }
}

TEST(RingTest, CoversAllShards) {
  const ConsistentHashRing ring(16, 64);
  std::vector<uint64_t> hits(16, 0);
  for (uint64_t key = 0; key < 100000; ++key) {
    ++hits[ring.Route(key)];
  }
  for (uint32_t s = 0; s < 16; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " owns no keys";
  }
}

TEST(RingTest, BoundedKeyMovementOnShardAdd) {
  // Growing n -> n+1 shards must move about 1/(n+1) of the key space and
  // every moved key must land on the new shard.
  constexpr uint64_t kKeys = 200000;
  for (const uint32_t n : {4u, 8u, 16u}) {
    const ConsistentHashRing before(n, 64);
    const ConsistentHashRing after(n + 1, 64);
    uint64_t moved = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
      const uint32_t s0 = before.Route(key);
      const uint32_t s1 = after.Route(key);
      if (s0 != s1) {
        ++moved;
        EXPECT_EQ(s1, n) << "key " << key << " moved between surviving shards";
      }
    }
    const double frac = static_cast<double>(moved) / kKeys;
    const double ideal = 1.0 / (n + 1);
    EXPECT_GT(frac, ideal * 0.5) << "n=" << n;
    EXPECT_LT(frac, ideal * 2.0) << "n=" << n;
  }
}

TEST(RingTest, RemovalOnlyReassignsVictimKeys) {
  // Shrinking n+1 -> n only reassigns keys the removed shard owned.
  const ConsistentHashRing big(9, 64);
  const ConsistentHashRing small(8, 64);
  for (uint64_t key = 0; key < 50000; ++key) {
    const uint32_t s_big = big.Route(key);
    if (s_big != 8) {
      EXPECT_EQ(small.Route(key), s_big);
    }
  }
}

TEST(LoadGenTest, PureFunctionOfSeed) {
  LoadGenConfig cfg;
  cfg.requests = 1000;
  cfg.key_theta = 0.99;
  const std::vector<FarmRequest> a = GenerateRequests(cfg);
  const std::vector<FarmRequest> b = GenerateRequests(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].client, b[i].client);
  }
  // Divergence check on the uniform stream (Zipf skew makes unrelated seeds
  // collide on the hot keys by design).
  cfg.key_theta = 0.0;
  const std::vector<FarmRequest> u1 = GenerateRequests(cfg);
  cfg.seed = 43;
  const std::vector<FarmRequest> u2 = GenerateRequests(cfg);
  size_t diff = 0;
  for (size_t i = 0; i < u1.size(); ++i) {
    diff += u1[i].key != u2[i].key ? 1 : 0;
  }
  EXPECT_GT(diff, u1.size() / 2);
}

TEST(LoadGenTest, PoissonArrivalsMonotoneAndSeeded) {
  const std::vector<uint64_t> a = PoissonArrivals(500, 1e6, 3.6, 42);
  const std::vector<uint64_t> b = PoissonArrivals(500, 1e6, 3.6, 42);
  EXPECT_EQ(a, b);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i], a[i - 1]);
  }
  // Mean gap should be within 20% of ghz*1e9/rate = 3600 cycles.
  const double mean = static_cast<double>(a.back()) / static_cast<double>(a.size());
  EXPECT_GT(mean, 3600 * 0.8);
  EXPECT_LT(mean, 3600 * 1.2);
}

TEST(LoadGenDeathTest, PoissonArrivalsRejectsUnusableRates) {
  EXPECT_DEATH(PoissonArrivals(10, 0.0, 3.6, 42), "offered rate must be > 0");
  EXPECT_DEATH(PoissonArrivals(10, -5.0, 3.6, 42), "offered rate must be > 0");
  // ~3.6e15 cycles per gap: 20000 arrivals run past 2^64 cycles.
  EXPECT_DEATH(PoissonArrivals(20000, 1e-6, 3.6, 42), "past the 64-bit cycle range");
}

FarmConfig SmallFarm() {
  FarmConfig cfg;
  cfg.shards = 4;
  cfg.policy = PolicyKind::kSgxBounds;
  cfg.app = FarmApp::kKvStore;
  cfg.load.requests = 2000;
  cfg.load.clients = 8;
  return cfg;
}

TEST(FarmTest, TransitionsDefaultOff) {
  // Without EnableTransitions the new counters must stay exactly zero for
  // every shard — the invariant that keeps all pre-farm results bit-stable.
  const FarmResult r = RunFarm(SmallFarm());
  EXPECT_EQ(r.served + r.dropped, 2000u);
  EXPECT_EQ(r.totals.ecalls, 0u);
  EXPECT_EQ(r.totals.ocalls, 0u);
  EXPECT_EQ(r.totals.transition_cycles, 0u);
}

TEST(FarmTest, TransitionsChargeOnePerRequest) {
  FarmConfig cfg = SmallFarm();
  cfg.machine.costs.EnableTransitions();
  const FarmResult r = RunFarm(cfg);
  // One ECALL per dispatched request, priced straight from the cost table.
  EXPECT_EQ(r.totals.ecalls, 2000u);
  EXPECT_EQ(r.totals.transition_cycles,
            r.totals.ecalls * cfg.machine.costs.ecall +
                r.totals.ocalls * cfg.machine.costs.OcallCost());
}

TEST(FarmTest, SwitchlessCheaperThanSync) {
  // netserver's recv/send pair exercises the OCALL axis; switchless host
  // calls must strictly reduce transition cycles without changing service
  // counts.
  FarmConfig sync_cfg = SmallFarm();
  sync_cfg.app = FarmApp::kNetserver;
  sync_cfg.machine.costs.EnableTransitions(/*use_switchless=*/false);
  FarmConfig swl_cfg = sync_cfg;
  swl_cfg.machine.costs.EnableTransitions(/*use_switchless=*/true);
  const FarmResult sync_r = RunFarm(sync_cfg);
  const FarmResult swl_r = RunFarm(swl_cfg);
  EXPECT_GT(sync_r.totals.ocalls, 0u);
  EXPECT_EQ(sync_r.totals.ocalls, swl_r.totals.ocalls);
  EXPECT_EQ(sync_r.served, swl_r.served);
  EXPECT_LT(swl_r.totals.transition_cycles, sync_r.totals.transition_cycles);
}

TEST(FarmTest, DigestInvariantAcrossHostThreads) {
  // The acceptance bar: 1, 4 and 16 host threads produce bit-identical
  // results, for both arrival models.
  for (const bool open_loop : {false, true}) {
    FarmConfig cfg = SmallFarm();
    cfg.machine.costs.EnableTransitions();
    cfg.open_loop = open_loop;
    cfg.offered_rps = 500000.0;
    cfg.host_threads = 1;
    const FarmResult base = RunFarm(cfg);
    for (const uint32_t threads : {4u, 16u}) {
      cfg.host_threads = threads;
      const FarmResult r = RunFarm(cfg);
      EXPECT_EQ(r.digest, base.digest) << "threads=" << threads
                                       << " open_loop=" << open_loop;
      EXPECT_EQ(r.served, base.served);
      EXPECT_EQ(r.makespan_cycles, base.makespan_cycles);
      EXPECT_EQ(r.totals.cycles, base.totals.cycles);
    }
  }
  // fig15_farm's defaults (closed loop, sync transitions, seed 42) on a
  // 4-shard SGXBounds fleet of 16 clients x 4000 requests: the digests are
  // pinned, so a change that moves the farm's results fails here too.
  const std::pair<FarmApp, uint64_t> pinned[] = {{FarmApp::kKvStore, 0x885f638d64ba6460ull},
                                                 {FarmApp::kMemcached, 0x81050d03cd15bdadull}};
  for (const auto& [app, digest] : pinned) {
    FarmConfig cfg;
    cfg.app = app;
    cfg.policy = PolicyKind::kSgxBounds;
    cfg.shards = 4;
    cfg.load.requests = 4000;
    cfg.load.clients = 16;
    cfg.machine.costs.EnableTransitions();
    for (const uint32_t threads : {1u, 4u, 16u}) {
      cfg.host_threads = threads;
      EXPECT_EQ(RunFarm(cfg).digest, digest)
          << FarmAppName(app) << " at " << threads << " host threads";
    }
  }
}

TEST(FarmTest, ShardCountsPartitionTheStream) {
  const FarmConfig cfg = SmallFarm();
  const FarmResult r = RunFarm(cfg);
  ASSERT_EQ(r.shards.size(), 4u);
  uint64_t requests = 0;
  for (const FarmShardStats& s : r.shards) {
    requests += s.requests;
    EXPECT_EQ(s.served + s.dropped, s.requests);
  }
  EXPECT_EQ(requests, 2000u);
  EXPECT_EQ(r.served + r.dropped, 2000u);
}

TEST(FarmTest, LatencyHistogramPopulated) {
  FarmConfig cfg = SmallFarm();
  const FarmResult r = RunFarm(cfg);
  EXPECT_EQ(r.latency.count(), r.served);
  EXPECT_GT(r.latency.P50(), 0.0);
  EXPECT_GE(r.latency.P999(), r.latency.P50());
}

TEST(FarmTest, EveryAppServes) {
  // Each registered farm app must run end to end under the paper's scheme.
  for (const std::string& name : FarmAppChoices()) {
    FarmApp app;
    ASSERT_TRUE(ParseFarmApp(name, &app));
    FarmConfig cfg = SmallFarm();
    cfg.app = app;
    cfg.shards = 2;
    cfg.load.requests = 200;
    cfg.machine.costs.EnableTransitions();
    const FarmResult r = RunFarm(cfg);
    EXPECT_GT(r.served, 0u) << name;
    EXPECT_EQ(r.totals.ecalls, 200u) << name;
  }
}

}  // namespace
}  // namespace sgxb
