// Integration tests for the case-study applications: functional correctness
// of the kvstore/memcached/httpd/nginx analogues under every policy, plus
// the SS7 security reproductions (Heartbleed, CVE-2011-4971, CVE-2013-2028).

#include <gtest/gtest.h>

#include "src/apps/httpd.h"
#include "src/apps/kvstore.h"
#include "src/apps/memcached.h"
#include "src/apps/netserver.h"
#include "src/apps/nginx_app.h"
#include "src/policy/registry.h"

namespace sgxb {
namespace {

MachineSpec AppSpec() {
  MachineSpec spec;
  spec.space_bytes = 2 * kGiB;
  spec.heap_reserve = 1 * kGiB;
  return spec;
}

// --- kvstore -------------------------------------------------------------------

TEST(KvStoreTest, InsertGetRoundTripAllPolicies) {
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const RunResult r = RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      KvStore<P> store(&env.policy, &env.cpu);
      for (uint64_t k = 0; k < 5000; ++k) {
        store.Insert((k * 7919) % 5000, 120);
      }
      uint64_t word = 0;
      for (uint64_t k = 0; k < 5000; ++k) {
        ASSERT_TRUE(store.Get(k, &word)) << "key " << k;
      }
      ASSERT_FALSE(store.Get(999999, &word));
    });
    EXPECT_FALSE(r.crashed) << PolicyName(kind) << ": " << r.trap_message;
  }
}

TEST(KvStoreTest, UpdateAndScan) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, AppSpec(), PolicyOptions{}, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        KvStore<P> store(&env.policy, &env.cpu);
        for (uint64_t k = 0; k < 2000; ++k) {
          store.Insert(k, 64);
        }
        ASSERT_TRUE(store.Update(1234, 0xabcd));
        uint64_t word = 0;
        ASSERT_TRUE(store.Get(1234, &word));
        EXPECT_EQ(word, 0xabcdu);
        EXPECT_GT(store.Scan(500, 10), 0u);
        EXPECT_FALSE(store.Update(99999, 1));
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

TEST(KvStoreTest, SpeedtestRunsAndCountsHits) {
  SpeedtestConfig cfg;
  cfg.items = 20000;
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, AppSpec(), PolicyOptions{}, [&](auto& env) {
        const SpeedtestResult result = RunSpeedtest(env, cfg);
        EXPECT_EQ(result.misses, 0u);
        EXPECT_EQ(result.hits, cfg.items);
        EXPECT_GT(result.scanned, 0u);
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

TEST(KvStoreTest, SgxBoundsCostWithinPaperEnvelope) {
  // Fig. 1: SGXBounds SQLite overhead is 30-35%; allow a generous envelope.
  SpeedtestConfig cfg;
  cfg.items = 15000;
  auto run = [&](PolicyKind kind) {
    return RunPolicyKind(kind, AppSpec(), PolicyOptions{},
                         [&](auto& env) { RunSpeedtest(env, cfg); });
  };
  const RunResult native = run(PolicyKind::kNative);
  const RunResult sgxb = run(PolicyKind::kSgxBounds);
  EXPECT_GT(sgxb.CyclesRatioOver(native), 1.0);
  EXPECT_LT(sgxb.CyclesRatioOver(native), 1.8);
  EXPECT_LT(sgxb.VmRatioOver(native), 1.1);
}

// --- memcached -------------------------------------------------------------------

TEST(MemcachedTest, SetGetProtocol) {
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const RunResult r = RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      SyscallShim shim(&env.enclave);
      Memcached<P> cache(&env.policy, &env.cpu, &shim, 1024);
      cache.Set(42, 512);
      cache.Set(43, 512);
      EXPECT_EQ(cache.Get(42), 512u);
      EXPECT_EQ(cache.Get(99), 0u);
      EXPECT_EQ(cache.item_count(), 2u);
      cache.Set(42, 256);  // replace
      EXPECT_EQ(cache.Get(42), 256u);
      EXPECT_EQ(cache.item_count(), 2u);
      EXPECT_GT(cache.ServeRequest("G 42"), 0u);
      EXPECT_GT(cache.ServeRequest("S 77 128"), 0u);
      EXPECT_EQ(cache.Get(77), 128u);
    });
    EXPECT_FALSE(r.crashed) << PolicyName(kind) << ": " << r.trap_message;
  }
}

TEST(MemcachedTest, Cve2011_4971DetectedByAllDefenses) {
  for (PolicyKind kind : {PolicyKind::kAsan, PolicyKind::kMpx, PolicyKind::kSgxBounds}) {
    const RunResult r = RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      SyscallShim shim(&env.enclave);
      Memcached<P> cache(&env.policy, &env.cpu, &shim, 1024);
      std::string outcome;
      cache.HandleBinarySet(-1, &outcome);  // negative body length
    });
    EXPECT_TRUE(r.crashed) << PolicyName(kind);
  }
}

TEST(MemcachedTest, Cve2011_4971CorruptsNative) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, AppSpec(), PolicyOptions{}, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        Memcached<P> cache(&env.policy, &env.cpu, &shim, 1024);
        std::string outcome;
        EXPECT_FALSE(cache.HandleBinarySet(-1, &outcome));
      });
  EXPECT_FALSE(r.crashed);
}

TEST(MemcachedTest, BoundlessModeSurvivesCve) {
  PolicyOptions options;
  options.oob = OobPolicy::kBoundless;
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, AppSpec(), options, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        Memcached<P> cache(&env.policy, &env.cpu, &shim, 1024);
        std::string outcome;
        cache.HandleBinarySet(-1, &outcome);
        // The overflow was absorbed by the overlay; the cache still works.
        cache.Set(1, 64);
        EXPECT_EQ(cache.Get(1), 64u);
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

// --- httpd / Heartbleed -------------------------------------------------------------

TEST(HttpdTest, ServesRequestsAllPolicies) {
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const RunResult r = RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      SyscallShim shim(&env.enclave);
      Httpd<P> server(&env.policy, &env.cpu, &shim);
      const uint32_t c0 = server.OpenConnection();
      const uint32_t c1 = server.OpenConnection();
      server.ServeGet(c0, "GET / HTTP/1.1\r\n\r\n");
      server.ServeGet(c1, "GET /index.html HTTP/1.1\r\n\r\n");
      EXPECT_EQ(server.requests_served(), 2u);
    });
    EXPECT_FALSE(r.crashed) << PolicyName(kind) << ": " << r.trap_message;
  }
}

TEST(HttpdTest, PoolFooterPageArtifact) {
  // SS7: Apache's page-aligned pools + the 4-byte footer => ~+50% memory for
  // SGXBounds relative to native, far below ASan's shadow-dominated usage.
  auto run = [&](PolicyKind kind) {
    return RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      SyscallShim shim(&env.enclave);
      Httpd<P> server(&env.policy, &env.cpu, &shim);
      for (int i = 0; i < 64; ++i) {
        server.OpenConnection();
      }
    });
  };
  const RunResult native = run(PolicyKind::kNative);
  const RunResult sgxb = run(PolicyKind::kSgxBounds);
  const RunResult asan = run(PolicyKind::kAsan);
  EXPECT_GT(sgxb.VmRatioOver(native), 1.2);  // the pool-page artifact
  EXPECT_LT(sgxb.VmRatioOver(native), 1.7);
  EXPECT_GT(asan.VmRatioOver(native), 5.0);  // shadow reservation dominates
}

TEST(HttpdTest, HeartbleedLeaksUnderNative) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, AppSpec(), PolicyOptions{}, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        Httpd<P> server(&env.policy, &env.cpu, &shim);
        bool survived = false;
        const auto echoed = server.Heartbeat(16, 256, &survived);
        ASSERT_EQ(echoed.size(), 256u);
        const std::string as_str(echoed.begin(), echoed.end());
        EXPECT_NE(as_str.find("PRIVATE-KEY"), std::string::npos)
            << "the over-read should have leaked the adjacent secret";
      });
  EXPECT_FALSE(r.crashed);
}

TEST(HttpdTest, HeartbleedDetectedByAllDefenses) {
  for (PolicyKind kind : {PolicyKind::kAsan, PolicyKind::kMpx, PolicyKind::kSgxBounds}) {
    const RunResult r = RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      SyscallShim shim(&env.enclave);
      Httpd<P> server(&env.policy, &env.cpu, &shim);
      bool survived = false;
      server.Heartbeat(16, 256, &survived);
    });
    EXPECT_TRUE(r.crashed) << PolicyName(kind);
  }
}

TEST(HttpdTest, HeartbleedBoundlessAnswersZerosAndContinues) {
  // SS7: "SGXBounds ... copies zeros into the reply ... allowing Apache to
  // continue its execution."
  PolicyOptions options;
  options.oob = OobPolicy::kBoundless;
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, AppSpec(), options, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        Httpd<P> server(&env.policy, &env.cpu, &shim);
        bool survived = false;
        const auto echoed = server.Heartbeat(16, 256, &survived);
        EXPECT_TRUE(survived);
        ASSERT_EQ(echoed.size(), 256u);
        // The legitimate 16 payload bytes come back; everything past the
        // object bound reads as zeros - no secret bytes.
        for (size_t i = 16; i < echoed.size(); ++i) {
          EXPECT_EQ(echoed[i], 0) << "index " << i;
        }
        const uint32_t cid = server.OpenConnection();
        server.ServeGet(cid, "GET / HTTP/1.1\r\n\r\n");
        EXPECT_EQ(server.requests_served(), 1u);
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

// --- nginx / CVE-2013-2028 ------------------------------------------------------------

TEST(NginxTest, ServesPageWithDoubleCopy) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, AppSpec(), PolicyOptions{}, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        NginxApp<P> server(&env.policy, &env.cpu, &shim);
        server.ServeGet("GET / HTTP/1.1\r\n\r\n");
        EXPECT_EQ(server.requests_served(), 1u);
        // Both copies happened: >= 2x page bytes moved out via the shim.
        EXPECT_GE(shim.stats().bytes_out, NginxApp<P>::kPageBytes);
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

TEST(NginxTest, BenignChunkAccepted) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, AppSpec(), PolicyOptions{}, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        NginxApp<P> server(&env.policy, &env.cpu, &shim);
        bool survived = false;
        std::string detail;
        EXPECT_FALSE(server.ChunkedRequest("400", &survived, &detail));
        EXPECT_TRUE(survived);
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

TEST(NginxTest, Cve2013_2028SmashesStackNative) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, AppSpec(), PolicyOptions{}, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        NginxApp<P> server(&env.policy, &env.cpu, &shim);
        bool survived = false;
        std::string detail;
        // 0xffffffffffffff0 parses to a negative off_t.
        EXPECT_TRUE(server.ChunkedRequest("fffffffffffffff0", &survived, &detail));
        EXPECT_TRUE(survived) << detail;  // silently corrupted, keeps running
      });
  EXPECT_FALSE(r.crashed);
}

TEST(NginxTest, Cve2013_2028DetectedByAllDefenses) {
  // The worker catches the trap and dies (survived == false); the stack is
  // never smashed. That per-worker fail-stop is the detection - nginx's
  // master would respawn the worker.
  for (PolicyKind kind : {PolicyKind::kAsan, PolicyKind::kMpx, PolicyKind::kSgxBounds}) {
    const RunResult r = RunPolicyKind(kind, AppSpec(), PolicyOptions{}, [&](auto& env) {
      using P = std::decay_t<decltype(env.policy)>;
      SyscallShim shim(&env.enclave);
      NginxApp<P> server(&env.policy, &env.cpu, &shim);
      bool survived = true;
      std::string detail;
      const bool smashed = server.ChunkedRequest("fffffffffffffff0", &survived, &detail);
      EXPECT_FALSE(smashed) << PolicyName(kind);
      EXPECT_FALSE(survived) << PolicyName(kind) << ": " << detail;
    });
    EXPECT_FALSE(r.crashed) << PolicyName(kind) << ": " << r.trap_message;
  }
}

TEST(NginxTest, Cve2013_2028BoundlessDropsAndContinues) {
  PolicyOptions options;
  options.oob = OobPolicy::kBoundless;
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, AppSpec(), options, [&](auto& env) {
        using P = std::decay_t<decltype(env.policy)>;
        SyscallShim shim(&env.enclave);
        NginxApp<P> server(&env.policy, &env.cpu, &shim);
        bool survived = false;
        std::string detail;
        const bool smashed = server.ChunkedRequest("fffffffffffffff0", &survived, &detail);
        EXPECT_FALSE(smashed);
        EXPECT_TRUE(survived);
        EXPECT_TRUE(server.StillServing());
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
}

// --- closed-loop curve ---------------------------------------------------------------

TEST(NetServerTest, ClosedLoopShape) {
  // Below saturation: latency flat, throughput linear in clients.
  const CurvePoint a = ClosedLoopPoint(1, 4, 36000);
  const CurvePoint b = ClosedLoopPoint(4, 4, 36000);
  EXPECT_NEAR(a.latency_ms, b.latency_ms, 1e-9);
  EXPECT_NEAR(b.kops_per_sec, 4 * a.kops_per_sec, 1e-6);
  // Beyond saturation: throughput flat, latency linear.
  const CurvePoint c = ClosedLoopPoint(16, 4, 36000);
  EXPECT_NEAR(c.kops_per_sec, b.kops_per_sec, 1e-6);
  EXPECT_NEAR(c.latency_ms, 4 * b.latency_ms, 1e-9);
}

}  // namespace
}  // namespace sgxb
