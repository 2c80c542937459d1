// Scheme-conformance battery: every scheme in the registry is checked
// against its own SchemeDescriptor claims, with no scheme-specific test
// code. Adding a sixth policy (one directory + one scheme_list.h entry)
// automatically puts it under:
//
//   * registry well-formedness (ids, aliases, baseline, --policies parsing);
//   * the detection matrix: out-of-bounds write/read and underflow must
//     crash exactly when the descriptor claims detection; use-after-free
//     must crash where claimed;
//   * allocation/access invariants: data written through every access path
//     (Store/StoreAt/StoreField/StorePtr/Span/Memcpy/Memset) reads back
//     intact, under every scheme, and a calloc whose byte count overflows
//     32 bits traps kOutOfMemory;
//   * live-vs-replay identity: a recorded run's PerfCounters replay
//     bit-for-bit for every scheme;
//   * env.Serve() containment: with recovery enabled, a detected violation
//     is dropped and the run continues.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "src/policy/registry.h"
#include "src/policy/run.h"
#include "src/trace/record.h"
#include "src/trace/trace_replay.h"
#include "src/workloads/workload.h"

namespace sgxb {
namespace {

// --- registry well-formedness -----------------------------------------------

TEST(SchemeRegistry, CoversEveryPolicyKindExactlyOnce) {
  const auto& schemes = AllSchemes();
  EXPECT_EQ(schemes.size(), static_cast<size_t>(kPolicyKindCount));
  std::set<PolicyKind> kinds;
  std::set<std::string> ids;
  for (const SchemeDescriptor* d : schemes) {
    EXPECT_TRUE(kinds.insert(d->kind).second) << d->id;
    EXPECT_TRUE(ids.insert(d->id).second) << d->id;
    EXPECT_STRNE(d->id, "");
    EXPECT_STRNE(d->name, "");
  }
}

TEST(SchemeRegistry, ExactlyOneBaseline) {
  int baselines = 0;
  for (const SchemeDescriptor* d : AllSchemes()) {
    baselines += d->baseline ? 1 : 0;
  }
  EXPECT_EQ(baselines, 1);
}

TEST(SchemeRegistry, PaperSuiteIsTheFourPaperSchemes) {
  const auto& paper = PaperSchemes();
  ASSERT_EQ(paper.size(), 4u);
  EXPECT_EQ(paper[0]->kind, PolicyKind::kNative);
  EXPECT_EQ(paper[1]->kind, PolicyKind::kMpx);
  EXPECT_EQ(paper[2]->kind, PolicyKind::kAsan);
  EXPECT_EQ(paper[3]->kind, PolicyKind::kSgxBounds);
}

TEST(SchemeRegistry, LookupByIdAliasAndName) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    EXPECT_EQ(FindScheme(d->id), d);
    for (const char* alias : d->aliases) {
      EXPECT_EQ(FindScheme(alias), d) << alias;
    }
    EXPECT_STREQ(PolicyName(d->kind), d->name);
    EXPECT_EQ(&SchemeOf(d->kind), d);
  }
  EXPECT_EQ(FindScheme("no-such-scheme"), nullptr);
}

TEST(SchemeRegistry, ParsePolicyListShorthandsAndErrors) {
  std::string error;
  const auto paper = ParsePolicyList("paper", &error);
  EXPECT_EQ(paper.size(), 4u);
  const auto all = ParsePolicyList("all", &error);
  EXPECT_EQ(all.size(), static_cast<size_t>(kPolicyKindCount));
  const auto csv = ParsePolicyList("native,sgxbounds,l4ptr", &error);
  ASSERT_EQ(csv.size(), 3u);
  EXPECT_EQ(csv[0], PolicyKind::kNative);
  EXPECT_EQ(csv[1], PolicyKind::kSgxBounds);
  EXPECT_EQ(csv[2], PolicyKind::kL4Ptr);
  EXPECT_TRUE(ParsePolicyList("sgxbounds,bogus", &error).empty());
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

// --- detection matrix -------------------------------------------------------

// Each probe allocates two adjacent 64-byte objects (64 is a power of two,
// so even schemes with padded allocations place their bound exactly at
// offset 64) and commits one specific violation on the first.

RunResult ProbeOobWrite(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    auto b = env.policy.Malloc(env.cpu, 64);
    (void)b;
    env.policy.StoreAt(env.cpu, a, 64, static_cast<uint8_t>(0xAB));
  });
}

RunResult ProbeOobRead(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    auto b = env.policy.Malloc(env.cpu, 64);
    (void)b;
    (void)env.policy.template LoadAt<uint8_t>(env.cpu, a, 64);
  });
}

RunResult ProbeUnderflow(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    auto b = env.policy.Malloc(env.cpu, 64);
    (void)a;
    auto before = env.policy.Offset(env.cpu, b, -1);
    env.policy.Store(env.cpu, before, static_cast<uint8_t>(0xCD));
  });
}

RunResult ProbeUseAfterFree(PolicyKind kind) {
  return RunPolicyKind(kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
    auto a = env.policy.Malloc(env.cpu, 64);
    env.policy.Free(env.cpu, a);
    (void)env.policy.template Load<uint8_t>(env.cpu, a);
  });
}

TEST(SchemeConformance, OobWriteDetectedIffClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = ProbeOobWrite(d->kind);
    EXPECT_EQ(r.crashed, d->caps.detects_oob_write) << d->id << ": " << r.trap_message;
  }
}

TEST(SchemeConformance, OobReadDetectedIffClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = ProbeOobRead(d->kind);
    EXPECT_EQ(r.crashed, d->caps.detects_oob_read) << d->id << ": " << r.trap_message;
  }
}

TEST(SchemeConformance, UnderflowDetectedIffClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r = ProbeUnderflow(d->kind);
    EXPECT_EQ(r.crashed, d->caps.detects_underflow) << d->id << ": " << r.trap_message;
  }
}

TEST(SchemeConformance, UseAfterFreeDetectedWhereClaimed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (!d->caps.detects_uaf) {
      continue;  // schemes without quarantine legitimately read stale bytes
    }
    const RunResult r = ProbeUseAfterFree(d->kind);
    EXPECT_TRUE(r.crashed) << d->id;
  }
}

// --- allocation / access invariants -----------------------------------------

TEST(SchemeConformance, EveryAccessPathRoundTripsData) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RunResult r =
        RunPolicyKind(d->kind, MachineSpec{}, PolicyOptions{}, [](auto& env) {
          auto& pol = env.policy;
          Cpu& cpu = env.cpu;

          // StoreAt / LoadAt over a 256-byte object.
          auto p = pol.Malloc(cpu, 256);
          for (uint32_t i = 0; i < 32; ++i) {
            pol.StoreAt(cpu, p, i * 8, static_cast<uint64_t>(i) * 0x9E3779B9u);
          }
          for (uint32_t i = 0; i < 32; ++i) {
            ASSERT_EQ(pol.template LoadAt<uint64_t>(cpu, p, i * 8),
                      static_cast<uint64_t>(i) * 0x9E3779B9u);
          }

          // Field access.
          pol.StoreField(cpu, p, 16, static_cast<uint32_t>(0xDEADBEEF));
          ASSERT_EQ(pol.template LoadField<uint32_t>(cpu, p, 16), 0xDEADBEEFu);

          // Calloc zeroes.
          auto z = pol.Calloc(cpu, 8, 8);
          for (uint32_t i = 0; i < 8; ++i) {
            ASSERT_EQ(pol.template LoadAt<uint64_t>(cpu, z, i * 8), 0u);
          }

          // Memset + Memcpy.
          pol.Memset(cpu, z, 0x5A, 64);
          auto c = pol.Malloc(cpu, 64);
          pol.Memcpy(cpu, c, z, 64);
          ASSERT_EQ(pol.template LoadAt<uint8_t>(cpu, c, 63), 0x5Au);

          // Span (hoisted-check loop path).
          auto span = pol.OpenSpan(cpu, p, 256);
          for (uint32_t i = 0; i < 32; ++i) {
            span.Store(cpu, i * 8, static_cast<uint64_t>(i) + 7);
          }
          for (uint32_t i = 0; i < 32; ++i) {
            ASSERT_EQ(span.template Load<uint64_t>(cpu, i * 8),
                      static_cast<uint64_t>(i) + 7);
          }

          // Pointer-in-memory round trip preserves the address (and for
          // tagged schemes, the bounds ride along or are rederived).
          auto slot = pol.Malloc(cpu, 64);
          pol.StorePtr(cpu, slot, c);
          auto back = pol.LoadPtr(cpu, slot);
          ASSERT_EQ(pol.AddrOf(back), pol.AddrOf(c));
          ASSERT_EQ(pol.template LoadAt<uint8_t>(cpu, back, 0), 0x5Au);

          // Aligned allocation honours the request.
          auto al = pol.AlignedAlloc(cpu, 128, 64);
          ASSERT_EQ(pol.AddrOf(al) % 64, 0u);

          pol.Free(cpu, al);
          pol.Free(cpu, slot);
          pol.Free(cpu, c);
          pol.Free(cpu, z);
          pol.Free(cpu, p);
        });
    EXPECT_FALSE(r.crashed) << d->id << ": " << r.trap_message;
  }
}

// A count * size product past 32 bits must fail the allocation, not allocate
// the wrapped size (nor zero 4 GiB past a small block).
TEST(SchemeConformance, CallocOverflowTrapsOutOfMemory) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    for (const auto& [count, elem] : {std::pair<uint32_t, uint32_t>{65537, 65536},
                                      {65536, 65536},
                                      {0xffffffffu, 2}}) {
      const RunResult r =
          RunPolicyKind(d->kind, MachineSpec{}, PolicyOptions{}, [count, elem](auto& env) {
            (void)env.policy.Calloc(env.cpu, count, elem);
          });
      EXPECT_TRUE(r.crashed) << d->id << " " << count << "x" << elem;
      EXPECT_EQ(r.trap, TrapKind::kOutOfMemory) << d->id << ": " << r.trap_message;
    }
  }
}

// --- live vs replay ---------------------------------------------------------

TEST(SchemeConformance, LiveAndReplayCountersIdentical) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("matrixmul");
  ASSERT_NE(info, nullptr);
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RecordedRun rec =
        RecordWorkloadRun(*info, d->kind, MachineSpec{}, PolicyOptions{}, cfg);
    ASSERT_FALSE(rec.live.crashed) << d->id;
    const ReplayResult replay = ReplayTrace(rec.trace);
    EXPECT_EQ(replay.cycles, rec.live.cycles) << d->id;
    EXPECT_TRUE(replay.counters == rec.live.counters) << d->id;
  }
}

// --- Serve() containment ----------------------------------------------------

TEST(SchemeConformance, ServeContainsDetectedViolations) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    MachineSpec spec;
    spec.recovery.enabled = true;
    spec.recovery.max_retries = 0;  // a deterministic violation never heals
    bool served_violation = false;
    bool served_benign = false;
    const RunResult r = RunPolicyKind(d->kind, spec, PolicyOptions{}, [&](auto& env) {
      auto a = env.policy.Malloc(env.cpu, 64);
      auto b = env.policy.Malloc(env.cpu, 64);
      served_violation = env.Serve(
          [&] { env.policy.StoreAt(env.cpu, a, 64, static_cast<uint8_t>(1)); });
      served_benign = env.Serve(
          [&] { env.policy.StoreAt(env.cpu, b, 0, static_cast<uint8_t>(2)); });
    });
    EXPECT_FALSE(r.crashed) << d->id << ": " << r.trap_message;
    EXPECT_TRUE(served_benign) << d->id;
    if (d->caps.detects_oob_write) {
      EXPECT_FALSE(served_violation) << d->id;
      EXPECT_GE(r.recovery_stats.contained, 1u) << d->id;
    } else {
      EXPECT_TRUE(served_violation) << d->id;
      EXPECT_EQ(r.recovery_stats.contained, 0u) << d->id;
    }
  }
}

}  // namespace
}  // namespace sgxb
