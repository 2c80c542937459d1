// Tests for the RIPE reproduction: the Table 4 detection matrix must hold
// exactly, and each scenario class must behave per its mechanism. Attacks
// run through each registered scheme's own struct (the one CheckedPolicy
// drives for the workloads), so every registered scheme is also checked
// against its own declared expectation.

#include <gtest/gtest.h>

#include "src/policy/registry.h"
#include "src/ripe/ripe.h"

namespace sgxb {
namespace {

TEST(RipeTest, SixteenScenarios) {
  const auto& scenarios = RipeScenarios();
  EXPECT_EQ(scenarios.size(), 16u);
  int intra = 0;
  for (const auto& s : scenarios) {
    intra += s.intra_object ? 1 : 0;
  }
  EXPECT_EQ(intra, 8);
}

TEST(RipeTest, NativePreventsNothing) {
  const RipeSummary summary = RunRipeSuite(PolicyKind::kNative);
  EXPECT_EQ(summary.prevented, 0);
  EXPECT_EQ(summary.succeeded, 16);
}

TEST(RipeTest, Table4MpxPreventsTwo) {
  const RipeSummary summary = RunRipeSuite(PolicyKind::kMpx);
  EXPECT_EQ(summary.prevented, 2);
}

TEST(RipeTest, Table4AsanPreventsEight) {
  const RipeSummary summary = RunRipeSuite(PolicyKind::kAsan);
  EXPECT_EQ(summary.prevented, 8);
}

TEST(RipeTest, Table4SgxBoundsPreventsEight) {
  const RipeSummary summary = RunRipeSuite(PolicyKind::kSgxBounds);
  EXPECT_EQ(summary.prevented, 8);
}

// Every registered scheme - including plugged-in ones like l4ptr - must
// prevent exactly what its descriptor declares. This is the registry-level
// Table 4: a scheme whose defense drifts from its claim fails here.
TEST(RipeTest, EverySchemeMatchesItsDeclaredExpectation) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    const RipeSummary summary = RunRipeSuite(d->kind);
    EXPECT_EQ(summary.prevented, d->ripe_expected_prevented) << d->id;
    EXPECT_EQ(summary.total, 16) << d->id;
  }
}

TEST(RipeTest, PreventedAttacksNeverSucceed) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    std::vector<AttackOutcome> outcomes;
    RunRipeSuite(d->kind, &outcomes);
    for (const auto& outcome : outcomes) {
      EXPECT_FALSE(outcome.prevented && outcome.succeeded) << d->id;
    }
  }
}

TEST(RipeTest, IntraObjectEscapesEveryDefense) {
  // SS6.6: in-struct overflows escape object-granularity bounds checking.
  // True for every registered scheme (they are all object-granularity).
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (!d->caps.detects_oob_write) {
      continue;  // native prevents nothing, covered above
    }
    for (const auto& scenario : RipeScenarios()) {
      if (!scenario.intra_object) {
        continue;
      }
      const AttackOutcome outcome = RunAttack(scenario, d->kind);
      EXPECT_FALSE(outcome.prevented) << d->id << " / " << scenario.name;
      EXPECT_TRUE(outcome.succeeded) << d->id << " / " << scenario.name;
    }
  }
}

TEST(RipeTest, InterObjectCaughtByAsanAndSgxBounds) {
  for (const PolicyKind kind : {PolicyKind::kAsan, PolicyKind::kSgxBounds}) {
    for (const auto& scenario : RipeScenarios()) {
      if (scenario.intra_object) {
        continue;
      }
      const AttackOutcome outcome = RunAttack(scenario, kind);
      EXPECT_TRUE(outcome.prevented) << PolicyName(kind) << " / " << scenario.name;
    }
  }
}

TEST(RipeTest, InterObjectCaughtByL4Ptr) {
  // The fifth scheme carries both bounds in the pointer tag: direct stores
  // and the fortified libc both see them, so all 8 inter-object attacks are
  // prevented without any in-memory metadata.
  for (const auto& scenario : RipeScenarios()) {
    const AttackOutcome outcome = RunAttack(scenario, PolicyKind::kL4Ptr);
    EXPECT_EQ(outcome.prevented, !scenario.intra_object) << scenario.name;
  }
}

TEST(RipeTest, MpxCatchesOnlyDirectStackSmashes) {
  for (const auto& scenario : RipeScenarios()) {
    const AttackOutcome outcome = RunAttack(scenario, PolicyKind::kMpx);
    const bool expect_prevented = !scenario.intra_object &&
                                  scenario.technique == AttackTechnique::kDirectLoop &&
                                  scenario.location == AttackLocation::kStack;
    EXPECT_EQ(outcome.prevented, expect_prevented) << scenario.name;
  }
}

TEST(RipeTest, LibcMediatedAttacksBypassMpx) {
  // The BNDPRESERVE escape hatch: bounds die at the uninstrumented libc
  // boundary, so the copy lands.
  for (const auto& scenario : RipeScenarios()) {
    if (scenario.technique == AttackTechnique::kDirectLoop) {
      continue;
    }
    const AttackOutcome outcome = RunAttack(scenario, PolicyKind::kMpx);
    EXPECT_TRUE(outcome.succeeded) << scenario.name;
  }
}

TEST(RipeTest, NarrowingExtensionCatchesIntraObject) {
  // SS8 "catching intra-object overflows": with bounds narrowing, SGXBounds
  // prevents all 16 attacks (the forward in-struct overflows now trip the
  // narrowed upper bound).
  const RipeSummary summary =
      RunRipeSuite(PolicyKind::kSgxBounds, nullptr, /*narrow_bounds=*/true);
  EXPECT_EQ(summary.prevented, 16);
  EXPECT_EQ(summary.succeeded, 0);
}

TEST(RipeTest, NarrowingDoesNotAffectOtherDefenses) {
  EXPECT_EQ(RunRipeSuite(PolicyKind::kMpx, nullptr, true).prevented, 2);
  EXPECT_EQ(RunRipeSuite(PolicyKind::kAsan, nullptr, true).prevented, 8);
  // l4ptr has no NarrowTo member, so narrowing leaves it unchanged too.
  EXPECT_EQ(RunRipeSuite(PolicyKind::kL4Ptr, nullptr, true).prevented, 8);
}

}  // namespace
}  // namespace sgxb
