// Fault-injection engine + trap-recovery layer tests: plan parsing, seeded
// determinism (same plan + seed => bit-identical runs), recovery semantics
// (retry / containment / watchdog), service-level containment bounds for the
// kvstore and httpd wrappers, and record/replay identity of injected runs.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/apps/contained_service.h"
#include "src/fault/fault.h"
#include "src/fault/shard_fault.h"
#include "src/policy/registry.h"
#include "src/trace/trace_recorder.h"
#include "src/trace/trace_replay.h"

namespace sgxb {
namespace {

// --- plan parsing -----------------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammar) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(
      "alloc_fail@alloc:100; wild_write@access:5000*3+2500, epc_storm@cycle:900000;"
      "metadata_flip@access:777;seed=9",
      &plan, &error))
      << error;
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.seed, 9u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kAllocFail);
  EXPECT_EQ(plan.events[0].trigger, FaultTrigger::kAllocIndex);
  EXPECT_EQ(plan.events[0].at, 100u);
  EXPECT_EQ(plan.events[0].count, 1u);

  EXPECT_EQ(plan.events[1].kind, FaultKind::kWildWrite);
  EXPECT_EQ(plan.events[1].trigger, FaultTrigger::kAccessCount);
  EXPECT_EQ(plan.events[1].at, 5000u);
  EXPECT_EQ(plan.events[1].count, 3u);
  EXPECT_EQ(plan.events[1].period, 2500u);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kEpcStorm);
  EXPECT_EQ(plan.events[2].trigger, FaultTrigger::kCycleCount);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kMetadataFlip);
}

TEST(FaultPlan, RejectsBadSpecsNamingValidChoices) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("cosmic_ray@access:5", &plan, &error));
  EXPECT_NE(error.find("cosmic_ray"), std::string::npos);
  EXPECT_NE(error.find("alloc_fail|wild_write|epc_storm|metadata_flip"), std::string::npos);

  EXPECT_FALSE(FaultPlan::Parse("alloc_fail@page:5", &plan, &error));
  EXPECT_NE(error.find("access|alloc|cycle"), std::string::npos);

  EXPECT_FALSE(FaultPlan::Parse("alloc_fail@alloc:0", &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("alloc_fail@alloc:x", &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("alloc_fail:5", &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("seed=abc", &plan, &error));
}

// A number in a fault spec is decimal digits that fit 64 bits: a sign, an
// overflow or a hex prefix is an error with a message, never a value that
// wrapped or saturated into a fault that silently never fires.
TEST(FaultPlan, RejectsSignedAndOverflowingNumbers) {
  for (const char* spec :
       {"alloc_fail@alloc:-1", "alloc_fail@alloc:5+-1", "alloc_fail@alloc:5*-1",
        "alloc_fail@alloc:99999999999999999999999", "alloc_fail@alloc:+5",
        "alloc_fail@alloc:0x10", "alloc_fail@alloc:5* 2", "seed=-1",
        "seed=18446744073709551616"}) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error)) << spec;
    EXPECT_EQ(error.rfind("bad fault ", 0), 0u) << spec << ": " << error;
  }
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(" alloc_fail @ alloc : 18446744073709551615 ", &plan, &error))
      << error;
  EXPECT_EQ(plan.events[0].at, 18446744073709551615ull);
}

TEST(ShardFaultPlan, RejectsSignedAndOverflowingNumbers) {
  for (const char* spec : {"crash@-1:500", "crash@1:-1", "crash@1:99999999999999999999999",
                           "crash@+1:500", "seed=-1"}) {
    ShardFaultPlan plan;
    std::string error;
    EXPECT_FALSE(ShardFaultPlan::Parse(spec, &plan, &error)) << spec;
    EXPECT_EQ(error.rfind("bad ", 0), 0u) << spec << ": " << error;
  }
}

TEST(FaultPlan, ToSpecRoundTrips) {
  FaultPlan plan;
  std::string error;
  const std::string spec = "wild_write@access:5000*3+2500;alloc_fail@alloc:7;seed=123";
  ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << error;
  FaultPlan again;
  ASSERT_TRUE(FaultPlan::Parse(plan.ToSpec(), &again, &error)) << error;
  ASSERT_EQ(again.events.size(), plan.events.size());
  EXPECT_EQ(again.seed, plan.seed);
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(again.events[i].trigger, plan.events[i].trigger) << i;
    EXPECT_EQ(again.events[i].at, plan.events[i].at) << i;
    EXPECT_EQ(again.events[i].count, plan.events[i].count) << i;
  }
}

TEST(FaultPlan, SeededCampaignsAreDeterministic) {
  const FaultPlan a = FaultPlan::Campaign(FaultKind::kWildWrite, 7, 5, 100000);
  const FaultPlan b = FaultPlan::Campaign(FaultKind::kWildWrite, 7, 5, 100000);
  ASSERT_EQ(a.events.size(), 5u);
  EXPECT_EQ(a.ToSpec(), b.ToSpec());
  const FaultPlan c = FaultPlan::Campaign(FaultKind::kWildWrite, 8, 5, 100000);
  EXPECT_NE(a.ToSpec(), c.ToSpec());
  const FaultPlan m = FaultPlan::Mixed(7, 8, 100000);
  ASSERT_EQ(m.events.size(), 8u);
}

// --- recovery semantics -----------------------------------------------------------

MachineSpec SpecWithRecovery() {
  MachineSpec spec;
  spec.recovery.enabled = true;
  return spec;
}

TEST(Recovery, TransientAllocFailureIsRetriedAndRecovered) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("alloc_fail@alloc:10", &plan, &error)) << error;
  MachineSpec spec = SpecWithRecovery();
  spec.faults = &plan;

  uint64_t served = 0;
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, spec, PolicyOptions{}, [&](auto& env) {
        for (int i = 0; i < 32; ++i) {
          if (env.Serve([&] {
                auto p = env.policy.Malloc(env.cpu, 64);
                env.policy.template Store<uint32_t>(env.cpu, p, i);
              })) {
            ++served;
          }
        }
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
  EXPECT_EQ(served, 32u);  // the failed request was retried, not dropped
  EXPECT_EQ(r.fault_stats.injected[static_cast<int>(FaultKind::kAllocFail)], 1u);
  EXPECT_GE(r.recovery_stats.retried, 1u);
  EXPECT_EQ(r.recovery_stats.recovered, 1u);
  EXPECT_EQ(r.recovery_stats.contained, 0u);
  EXPECT_EQ(
      r.recovery_stats.trap_by_kind[static_cast<int>(TrapKind::kOutOfMemory)],
      r.recovery_stats.total_traps());
}

TEST(Recovery, RetryBackoffChargesSimulatedCycles) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("alloc_fail@alloc:10", &plan, &error)) << error;

  auto run = [&](bool with_faults) {
    MachineSpec spec = SpecWithRecovery();
    if (with_faults) {
      spec.faults = &plan;
    }
    return RunPolicyKind(PolicyKind::kNative, spec, PolicyOptions{}, [&](auto& env) {
      for (int i = 0; i < 32; ++i) {
        env.Serve([&] { env.policy.Malloc(env.cpu, 64); });
      }
    });
  };
  const RunResult clean = run(false);
  const RunResult faulted = run(true);
  // The faulted run re-ran one request and slept the backoff: strictly slower.
  EXPECT_GT(faulted.cycles, clean.cycles + faulted.recovery_stats.retried * 10000);
}

TEST(Recovery, DisabledRecoveryPropagatesTheTrap) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("alloc_fail@alloc:5", &plan, &error)) << error;
  MachineSpec spec;  // recovery disabled
  spec.faults = &plan;
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, spec, PolicyOptions{}, [&](auto& env) {
        for (int i = 0; i < 16; ++i) {
          env.Serve([&] { env.policy.Malloc(env.cpu, 64); });
        }
      });
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.trap, TrapKind::kOutOfMemory);
  EXPECT_EQ(r.recovery_stats.contained, 0u);
}

TEST(Recovery, WatchdogRethrowsWhenRequestBudgetExhausted) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("alloc_fail@alloc:5", &plan, &error)) << error;
  MachineSpec spec = SpecWithRecovery();
  spec.faults = &plan;
  spec.recovery.request_cycle_budget = 1;  // any trap exceeds this
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, spec, PolicyOptions{}, [&](auto& env) {
        for (int i = 0; i < 16; ++i) {
          env.Serve([&] { env.policy.Malloc(env.cpu, 64); });
        }
      });
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.trap, TrapKind::kOutOfMemory);
  EXPECT_EQ(r.recovery_stats.watchdog_kills, 1u);
  EXPECT_EQ(r.recovery_stats.retried, 0u);
}

// --- seeded determinism across the full pipeline ----------------------------------

TEST(FaultDeterminism, SamePlanSameSeedBitIdenticalAcrossPolicies) {
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const FaultPlan plan = FaultPlan::Mixed(/*seed=*/11, /*events=*/6, /*span=*/3000);
    auto run = [&] {
      MachineSpec spec = SpecWithRecovery();
      spec.faults = &plan;
      OracleKvResult kv;
      RunResult r = RunPolicyKind(kind, spec, PolicyOptions{}, [&](auto& env) {
        kv = RunOracleKvCampaign(env, /*requests=*/400, /*keyspace=*/128,
                                 /*value_bytes=*/48, /*seed=*/5);
      });
      return std::make_pair(r, kv);
    };
    const auto [r1, kv1] = run();
    const auto [r2, kv2] = run();
    const std::string what = PolicyName(kind);
    EXPECT_EQ(r1.cycles, r2.cycles) << what;
    EXPECT_EQ(r1.crashed, r2.crashed) << what;
    EXPECT_TRUE(r1.counters == r2.counters) << what;
    EXPECT_EQ(r1.fault_stats.total_injected(), r2.fault_stats.total_injected()) << what;
    EXPECT_EQ(r1.fault_stats.skipped, r2.fault_stats.skipped) << what;
    EXPECT_EQ(r1.recovery_stats.total_traps(), r2.recovery_stats.total_traps()) << what;
    EXPECT_EQ(kv1.served, kv2.served) << what;
    EXPECT_EQ(kv1.oracle_mismatches, kv2.oracle_mismatches) << what;
  }
}

// --- record/replay of injected runs -----------------------------------------------

TEST(FaultTrace, InjectedRunRecordsAndReplaysBitIdentical) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(
      "alloc_fail@alloc:20;wild_write@access:2000*2+1500;epc_storm@access:3000;seed=3",
      &plan, &error))
      << error;
  TraceRecorder recorder("fault_campaign/test", "");
  MachineSpec spec = SpecWithRecovery();
  spec.faults = &plan;
  spec.trace = &recorder;

  OracleKvResult kv;
  const RunResult live =
      RunPolicyKind(PolicyKind::kSgxBounds, spec, PolicyOptions{}, [&](auto& env) {
        kv = RunOracleKvCampaign(env, /*requests=*/300, /*keyspace=*/96,
                                 /*value_bytes=*/48, /*seed=*/13);
      });
  EXPECT_GT(live.fault_stats.total_injected(), 0u);

  const Trace trace = recorder.TakeTrace();
  ASSERT_FALSE(trace.summary.truncated);
  EXPECT_EQ(trace.summary.crashed, live.crashed ? 1u : 0u);

  const ReplayResult replay = ReplayTrace(trace);
  EXPECT_EQ(replay.cycles, live.cycles);
  EXPECT_EQ(replay.counters.loads, live.counters.loads);
  EXPECT_EQ(replay.counters.stores, live.counters.stores);
  EXPECT_EQ(replay.counters.metadata_loads, live.counters.metadata_loads);
  EXPECT_EQ(replay.counters.llc_misses, live.counters.llc_misses);
  EXPECT_EQ(replay.counters.epc_faults, live.counters.epc_faults);
  EXPECT_TRUE(replay.counters == live.counters);
  EXPECT_EQ(replay.crashed, live.crashed);
}

// --- service containment ----------------------------------------------------------

TEST(Containment, KvStoreServesAllButInjectedUnderTransientCampaign) {
  // Transient faults only (allocation failures + EPC storms): every trap is
  // retryable, so the contained store must keep serving.
  FaultPlan plan = FaultPlan::Campaign(FaultKind::kAllocFail, /*seed=*/21, /*events=*/4,
                                       /*span=*/4800);
  const FaultPlan storms =
      FaultPlan::Campaign(FaultKind::kEpcStorm, /*seed=*/22, /*events=*/2, /*span=*/4800);
  plan.events.insert(plan.events.end(), storms.events.begin(), storms.events.end());

  constexpr uint64_t kRequests = 600;
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const std::string what = PolicyName(kind);
    MachineSpec base = SpecWithRecovery();
    OracleKvResult clean;
    const RunResult clean_run =
        RunPolicyKind(kind, base, PolicyOptions{}, [&](auto& env) {
          clean = RunOracleKvCampaign(env, kRequests, 128, 48, /*seed=*/5);
        });
    ASSERT_FALSE(clean_run.crashed) << what;
    ASSERT_EQ(clean.served, kRequests) << what;

    MachineSpec spec = SpecWithRecovery();
    spec.faults = &plan;
    OracleKvResult kv;
    const RunResult r = RunPolicyKind(kind, spec, PolicyOptions{}, [&](auto& env) {
      kv = RunOracleKvCampaign(env, kRequests, 128, 48, /*seed=*/5);
    });
    EXPECT_FALSE(r.crashed) << what << ": " << r.trap_message;
    EXPECT_EQ(kv.served + kv.dropped, kRequests) << what;
    EXPECT_GE(kv.served, clean.served - r.fault_stats.total_injected()) << what;
    EXPECT_EQ(kv.oracle_mismatches, 0u) << what;
    // Per-kind accounting: transient campaigns only ever trap as OOM.
    EXPECT_EQ(r.recovery_stats.trap_by_kind[static_cast<int>(TrapKind::kOutOfMemory)],
              r.recovery_stats.total_traps())
        << what;
  }
}

TEST(Containment, HttpdKeepsServingUnderMixedCampaign) {
  const FaultPlan plan = FaultPlan::Mixed(/*seed=*/31, /*events=*/8, /*span=*/4000);
  constexpr uint64_t kRequests = 200;
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    const std::string what = PolicyName(kind);
    MachineSpec spec = SpecWithRecovery();
    spec.faults = &plan;
    ServiceResult sr;
    const RunResult r = RunPolicyKind(kind, spec, PolicyOptions{}, [&](auto& env) {
      sr = RunContainedHttpdWorkload(env, /*connections=*/4, kRequests);
    });
    EXPECT_FALSE(r.crashed) << what << ": " << r.trap_message;
    EXPECT_EQ(sr.served + sr.dropped, kRequests) << what;
    EXPECT_GE(sr.served, kRequests - r.fault_stats.total_injected()) << what;
    // Every drop was a contained trap, and every trap is accounted by kind.
    EXPECT_EQ(sr.dropped, r.recovery_stats.contained) << what;
    EXPECT_EQ(r.recovery_stats.total_traps(),
              r.recovery_stats.contained + r.recovery_stats.retried)
        << what;
  }
}

TEST(Containment, MemcachedSurvivesMixedCampaign) {
  const FaultPlan plan = FaultPlan::Mixed(/*seed=*/41, /*events=*/6, /*span=*/4000);
  MachineSpec spec = SpecWithRecovery();
  spec.faults = &plan;
  ServiceResult sr;
  const RunResult r =
      RunPolicyKind(PolicyKind::kSgxBounds, spec, PolicyOptions{}, [&](auto& env) {
        sr = RunContainedMemcachedWorkload(env, /*requests=*/400, /*keyspace=*/256,
                                           /*seed=*/7);
      });
  EXPECT_FALSE(r.crashed) << r.trap_message;
  EXPECT_EQ(sr.served + sr.dropped, 400u);
  EXPECT_GE(sr.served, 400u - r.fault_stats.total_injected() -
                           r.recovery_stats.contained);
}

// --- metadata corruptors ----------------------------------------------------------

TEST(MetadataFlip, LandsInSchemeMetadataOrIsCountedSkipped) {
  // Native has no metadata: the flip must be counted skipped, never crash.
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("metadata_flip@access:400*3+400;seed=17", &plan, &error))
      << error;
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    MachineSpec spec = SpecWithRecovery();
    spec.faults = &plan;
    OracleKvResult kv;
    const RunResult r = RunPolicyKind(kind, spec, PolicyOptions{}, [&](auto& env) {
      kv = RunOracleKvCampaign(env, /*requests=*/200, /*keyspace=*/64, 48, /*seed=*/3);
    });
    const std::string what = PolicyName(kind);
    EXPECT_FALSE(r.crashed) << what << ": " << r.trap_message;
    const uint64_t flips =
        r.fault_stats.injected[static_cast<int>(FaultKind::kMetadataFlip)];
    if (kind == PolicyKind::kNative) {
      EXPECT_EQ(flips, 0u) << what;
      EXPECT_EQ(r.fault_stats.skipped, 3u) << what;
    } else {
      EXPECT_EQ(flips + r.fault_stats.skipped, 3u) << what;
      EXPECT_GT(flips, 0u) << what;
    }
  }
}

// --- overlay exhaustion plumbing --------------------------------------------------

TEST(OverlayExhaust, PolicyOptionPlumbsThroughToBoundlessMemory) {
  // Probe through the harness: the scheme with a boundless-memory overlay
  // (SGXBounds) must see the configured exhaust policy inside a run.
  auto observed = [](const PolicyOptions& options) {
    std::optional<OverlayExhaustPolicy> got;
    MachineSpec spec;
    spec.space_bytes = 64 * kMiB;
    spec.heap_reserve = 16 * kMiB;
    const RunResult r =
        RunPolicyKind(PolicyKind::kSgxBounds, spec, options, [&](auto& env) {
          if constexpr (requires { env.policy.runtime().boundless().exhaust_policy(); }) {
            got = env.policy.runtime().boundless().exhaust_policy();
          }
        });
    EXPECT_FALSE(r.crashed) << r.trap_message;
    return got;
  };
  PolicyOptions fail_fast;
  fail_fast.overlay_exhaust = OverlayExhaustPolicy::kFailFast;
  EXPECT_EQ(observed(fail_fast), OverlayExhaustPolicy::kFailFast);
  EXPECT_EQ(observed(PolicyOptions{}), OverlayExhaustPolicy::kEvictOldest);
}

}  // namespace
}  // namespace sgxb
