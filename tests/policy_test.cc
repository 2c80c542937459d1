// Cross-policy tests: the same kernel must produce identical *data* under
// all four policies while exhibiting the paper's cost ordering; hardened
// policies must catch the same overflow the native run misses.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/common/digest.h"
#include "src/policy/registry.h"
#include "src/policy/run.h"
#include "src/policy/shadow/shadow_runtime.h"

namespace sgxb {
namespace {

MachineSpec SmallSpec() {
  MachineSpec spec;
  spec.space_bytes = 512 * kMiB;
  spec.heap_reserve = 128 * kMiB;
  spec.epc_bytes = 16 * kMiB;
  return spec;
}

// A little array-copy kernel (the paper's Fig. 4 example) returning a
// checksum computed inside the policy world.
template <typename P>
uint64_t CopyKernel(Env<P>& env, uint32_t n) {
  auto& cpu = env.cpu;
  auto s = env.policy.Malloc(cpu, n * 8);
  auto d = env.policy.Malloc(cpu, n * 8);
  for (uint32_t i = 0; i < n; ++i) {
    env.policy.template Store<uint64_t>(cpu, env.policy.Offset(cpu, s, i * 8), i * 31 + 7);
  }
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t v =
        env.policy.template Load<uint64_t>(cpu, env.policy.Offset(cpu, s, i * 8));
    env.policy.template Store<uint64_t>(cpu, env.policy.Offset(cpu, d, i * 8), v);
  }
  uint64_t sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += env.policy.template Load<uint64_t>(cpu, env.policy.Offset(cpu, d, i * 8));
  }
  return sum;
}

TEST(PolicyTest, AllPoliciesComputeSameResult) {
  uint64_t sums[4];
  int i = 0;
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const PolicyKind kind = scheme->kind;
    uint64_t out = 0;
    const RunResult r = RunPolicyKind(kind, SmallSpec(), PolicyOptions{},
                                      [&](auto& env) { out = CopyKernel(env, 1000); });
    EXPECT_FALSE(r.crashed) << PolicyName(kind) << ": " << r.trap_message;
    sums[i++] = out;
  }
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[1], sums[2]);
  EXPECT_EQ(sums[2], sums[3]);
}

TEST(PolicyTest, CostOrderingMatchesPaper) {
  // native <= sgxbounds < asan for a simple scalar kernel.
  std::map<PolicyKind, uint64_t> cycles;
  for (const SchemeDescriptor* scheme : PaperSchemes()) {
    const RunResult r = RunPolicyKind(scheme->kind, SmallSpec(), PolicyOptions{},
                                      [&](auto& env) { CopyKernel(env, 4000); });
    cycles[scheme->kind] = r.cycles;
  }
  const uint64_t native = cycles[PolicyKind::kNative];
  const uint64_t sgxbounds = cycles[PolicyKind::kSgxBounds];
  const uint64_t asan = cycles[PolicyKind::kAsan];
  EXPECT_LT(native, sgxbounds);
  EXPECT_LT(sgxbounds, asan);
}

TEST(PolicyTest, HardenedPoliciesCatchOverflow) {
  for (PolicyKind kind : {PolicyKind::kAsan, PolicyKind::kMpx, PolicyKind::kSgxBounds}) {
    const RunResult r =
        RunPolicyKind(kind, SmallSpec(), PolicyOptions{}, [&](auto& env) {
          auto& cpu = env.cpu;
          auto a = env.policy.Malloc(cpu, 64);
          // Off-by-one write past the object.
          env.policy.template Store<uint8_t>(cpu, env.policy.Offset(cpu, a, 64), 1);
        });
    EXPECT_TRUE(r.crashed) << PolicyName(kind);
  }
}

TEST(PolicyTest, NativeMissesSmallOverflowIntoNeighbour) {
  // The point of the paper: native SGX silently corrupts.
  const RunResult r =
      RunPolicyKind(PolicyKind::kNative, SmallSpec(), PolicyOptions{}, [&](auto& env) {
        auto& cpu = env.cpu;
        auto a = env.policy.Malloc(cpu, 64);
        env.policy.template Store<uint8_t>(cpu, env.policy.Offset(cpu, a, 64), 1);
      });
  EXPECT_FALSE(r.crashed);
}

TEST(PolicyTest, SgxBoundsMemoryOverheadIsTiny) {
  const uint32_t n = 512;  // 512 x 4 KiB objects
  auto body = [&](auto& env) {
    for (uint32_t i = 0; i < n; ++i) {
      env.policy.Malloc(env.cpu, 4096 - 16);
    }
  };
  const RunResult native =
      RunPolicyKind(PolicyKind::kNative, SmallSpec(), PolicyOptions{}, body);
  const RunResult sgxb =
      RunPolicyKind(PolicyKind::kSgxBounds, SmallSpec(), PolicyOptions{}, body);
  const RunResult asan = RunPolicyKind(PolicyKind::kAsan, SmallSpec(), PolicyOptions{}, body);
  EXPECT_LT(sgxb.VmRatioOver(native), 1.05);
  EXPECT_GT(asan.VmRatioOver(native), 2.0);  // shadow reservation dominates
}

TEST(PolicyTest, MpxPointerChasingAllocatesTables) {
  const RunResult r =
      RunPolicyKind(PolicyKind::kMpx, SmallSpec(), PolicyOptions{}, [&](auto& env) {
        auto& cpu = env.cpu;
        using Ptr = typename std::decay_t<decltype(env.policy)>::Ptr;
        // An array of pointers to small objects (the pca pattern).
        auto arr = env.policy.Malloc(cpu, 1000 * kPtrSlotBytes);
        for (uint32_t i = 0; i < 1000; ++i) {
          Ptr obj = env.policy.Malloc(cpu, 64);
          env.policy.StorePtr(cpu, env.policy.Offset(cpu, arr, i * kPtrSlotBytes), obj);
        }
      });
  EXPECT_FALSE(r.crashed);
  EXPECT_GE(r.mpx_bt_count, 1u);
}

TEST(PolicyTest, SgxBoundsPointerInMemoryKeepsBounds) {
  const RunResult r = RunPolicyKind(
      PolicyKind::kSgxBounds, SmallSpec(), PolicyOptions{}, [&](auto& env) {
        auto& cpu = env.cpu;
        auto slot_arr = env.policy.Malloc(cpu, kPtrSlotBytes);
        auto obj = env.policy.Malloc(cpu, 32);
        env.policy.StorePtr(cpu, slot_arr, obj);
        auto loaded = env.policy.LoadPtr(cpu, slot_arr);
        // Bounds survived the round trip: OOB through the loaded pointer traps.
        env.policy.template Store<uint8_t>(cpu, env.policy.Offset(cpu, loaded, 32), 1);
      });
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.trap, TrapKind::kSgxBoundsViolation);
}

TEST(PolicyTest, MpxLosesBoundsThroughForeignStore) {
  // A pointer stored without bndstx (e.g. by uninstrumented code) loads back
  // with INIT bounds -> the attack is missed. SGXBounds does not have this
  // hole (previous test).
  const RunResult r = RunPolicyKind(
      PolicyKind::kMpx, SmallSpec(), PolicyOptions{}, [&](auto& env) {
        auto& cpu = env.cpu;
        auto slot = env.policy.Malloc(cpu, kPtrSlotBytes);
        auto obj = env.policy.Malloc(cpu, 32);
        // Raw store bypassing bndstx: what memcpy-ing a struct of pointers
        // through uninstrumented libc does.
        env.policy.enclave()->template Store<uint64_t>(cpu, env.policy.AddrOf(slot),
                                                       env.policy.AddrOf(obj));
        auto loaded = env.policy.LoadPtr(cpu, slot);
        env.policy.template Store<uint8_t>(cpu, env.policy.Offset(cpu, loaded, 32), 1);
      });
  EXPECT_FALSE(r.crashed);  // silently unprotected
}

TEST(PolicyTest, SpanHoistingReducesSgxBoundsCost) {
  auto body = [&](auto& env) {
    auto& cpu = env.cpu;
    const uint32_t n = 20000;
    auto a = env.policy.Malloc(cpu, n * 4);
    auto span = env.policy.OpenSpan(cpu, a, n * 4);
    for (uint32_t i = 0; i < n; ++i) {
      span.template Store<uint32_t>(cpu, i * 4, i);
    }
  };
  PolicyOptions with_opt;
  PolicyOptions no_opt;
  no_opt.opt_hoist_checks = false;
  const RunResult fast =
      RunPolicyKind(PolicyKind::kSgxBounds, SmallSpec(), with_opt, body);
  const RunResult slow = RunPolicyKind(PolicyKind::kSgxBounds, SmallSpec(), no_opt, body);
  EXPECT_LT(fast.cycles, slow.cycles);
}

TEST(PolicyTest, SafeElisionReducesFieldAccessCost) {
  auto body = [&](auto& env) {
    auto& cpu = env.cpu;
    auto obj = env.policy.Malloc(cpu, 64);
    for (int i = 0; i < 5000; ++i) {
      env.policy.template StoreField<uint32_t>(cpu, obj, 16, i);
    }
  };
  PolicyOptions with_opt;
  PolicyOptions no_opt;
  no_opt.opt_safe_elision = false;
  const RunResult fast =
      RunPolicyKind(PolicyKind::kSgxBounds, SmallSpec(), with_opt, body);
  const RunResult slow = RunPolicyKind(PolicyKind::kSgxBounds, SmallSpec(), no_opt, body);
  EXPECT_LT(fast.cycles, slow.cycles);
}

TEST(PolicyTest, OutsideEnclaveIsFasterThanInside) {
  MachineSpec inside = SmallSpec();
  MachineSpec outside = SmallSpec();
  outside.enclave_mode = false;
  auto body = [&](auto& env) { CopyKernel(env, 20000); };
  const RunResult in_r = RunPolicyKind(PolicyKind::kNative, inside, PolicyOptions{}, body);
  const RunResult out_r = RunPolicyKind(PolicyKind::kNative, outside, PolicyOptions{}, body);
  EXPECT_GT(in_r.cycles, out_r.cycles);
  EXPECT_GT(in_r.counters.epc_faults, 0u);
  EXPECT_EQ(out_r.counters.epc_faults, 0u);
}

// Every surface op once, in a fixed order, on a fresh machine; returns the
// FNV-1a digest of the resulting event counts, cycles and loaded data.
template <typename P>
uint64_t SurfaceOpsDigest(Env<P>& env) {
  auto& pol = env.policy;
  auto& cpu = env.cpu;
  auto a = pol.Malloc(cpu, 256);
  auto b = pol.AlignedAlloc(cpu, 128, 64);
  auto c = pol.Calloc(cpu, 16, 8);
  uint64_t data = 0;
  const auto a8 = pol.Offset(cpu, a, 8);
  pol.template Store<uint64_t>(cpu, a8, 0x1234);
  data += pol.template Load<uint64_t>(cpu, a8);
  pol.template StoreAt<uint32_t>(cpu, a, 40, 7);
  data += pol.template LoadAt<uint32_t>(cpu, a, 40);
  pol.template StoreField<uint16_t>(cpu, b, 16, 9);
  data += pol.template LoadField<uint16_t>(cpu, b, 16);
  pol.StorePtr(cpu, c, a);
  const auto back = pol.LoadPtr(cpu, c);
  data += pol.template Load<uint64_t>(cpu, pol.Offset(cpu, back, 8));
  auto span = pol.OpenSpan(cpu, a, 256);
  for (uint32_t i = 0; i < 32; ++i) {
    span.template Store<uint64_t>(cpu, i * 8, i * 3);
  }
  for (uint32_t i = 0; i < 32; ++i) {
    data += span.template Load<uint64_t>(cpu, i * 8);
  }
  pol.Memcpy(cpu, b, a, 128);
  pol.Memset(cpu, c, 0xab, 64);
  data += pol.template Load<uint8_t>(cpu, c);
  data += pol.template LoadAt<uint64_t>(cpu, b, 120);
  pol.Free(cpu, a);
  pol.Free(cpu, b);
  pol.Free(cpu, c);

  const PerfCounters& e = cpu.events();
  uint64_t h = kFnvOffset;
  for (uint64_t v :
       {e.cycles, e.alu_ops, e.branches, e.fp_ops, e.calls, e.syscalls, e.loads, e.stores,
        e.metadata_loads, e.metadata_stores, e.l1_accesses, e.l1_misses, e.l2_misses,
        e.llc_accesses, e.llc_misses, e.epc_faults, e.minor_faults, e.bounds_checks,
        e.bounds_violations, e.ecalls, e.ocalls, e.transition_cycles, cpu.cycles(), data}) {
    h = FnvMix(h, v);
  }
  return h;
}

// Pins every registered scheme's per-op charges, with the SS4.4 switches both
// on and both off. The figure goldens cover only the paper's four schemes at
// default options; this covers each scheme's whole policy surface.
TEST(PolicyTest, PerOpChargesMatchPinnedDigests) {
  struct Pin {
    PolicyKind kind;
    bool opts;
    uint64_t digest;
  };
  const Pin kPins[] = {
      {PolicyKind::kNative, true, 0x31e32eb79a045bbeull},
      {PolicyKind::kNative, false, 0x31e32eb79a045bbeull},
      {PolicyKind::kMpx, true, 0xe9731dbca9aff1f5ull},
      {PolicyKind::kMpx, false, 0xe9731dbca9aff1f5ull},
      {PolicyKind::kAsan, true, 0x46a7efa41256654eull},
      {PolicyKind::kAsan, false, 0x46a7efa41256654eull},
      {PolicyKind::kSgxBounds, true, 0x796592b5a0d232f6ull},
      {PolicyKind::kSgxBounds, false, 0x5c4aa1196c1f62a4ull},
      {PolicyKind::kL4Ptr, true, 0x967532a6fd370c6bull},
      {PolicyKind::kL4Ptr, false, 0x561699797f3f13a0ull},
      {PolicyKind::kShadow, true, 0x2439a5372bfff598ull},
      {PolicyKind::kShadow, false, 0x4dbee59a320ed071ull},
  };
  size_t checked = 0;
  for (const Pin& pin : kPins) {
    PolicyOptions options;
    options.opt_safe_elision = pin.opts;
    options.opt_hoist_checks = pin.opts;
    uint64_t digest = 0;
    const RunResult r = RunPolicyKind(pin.kind, SmallSpec(), options,
                                      [&](auto& env) { digest = SurfaceOpsDigest(env); });
    ASSERT_FALSE(r.crashed) << PolicyName(pin.kind) << ": " << r.trap_message;
    EXPECT_EQ(digest, pin.digest) << PolicyName(pin.kind) << " opts=" << pin.opts
                                  << " digest=0x" << std::hex << digest;
    ++checked;
  }
  EXPECT_EQ(checked, static_cast<size_t>(kPolicyKindCount) * 2);
}

TEST(PolicyTest, RunResultRatios) {
  RunResult base;
  base.cycles = 100;
  base.peak_vm_bytes = 1000;
  RunResult other;
  other.cycles = 117;
  other.peak_vm_bytes = 1001;
  EXPECT_NEAR(other.CyclesRatioOver(base), 1.17, 1e-9);
  EXPECT_NEAR(other.VmRatioOver(base), 1.001, 1e-9);
}

// --- ShadowRuntime's large-object escape ------------------------------------
//
// Objects of 0xffff granules or more store escape entries and take their
// extent from a side table, through a one-entry memo of the last hit.

struct ShadowRig {
  ShadowRig() {
    EnclaveConfig cfg;
    cfg.space_bytes = 256 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 64 * kMiB);
    rt = std::make_unique<ShadowRuntime>(enclave.get(), heap.get());
  }
  Cpu& cpu() { return enclave->main_cpu(); }

  // True when checking `bytes` at `p` passes; false when it traps as a
  // policy violation.
  bool Passes(ShadowPtr p, uint32_t bytes, AccessType type = AccessType::kRead) {
    try {
      rt->CheckAccess(cpu(), p, bytes, type);
      return true;
    } catch (const SimTrap& trap) {
      EXPECT_EQ(trap.kind(), TrapKind::kPolicyViolation) << trap.what();
      return false;
    }
  }

  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<ShadowRuntime> rt;
};

constexpr uint32_t kEscapeBytes = 0xffff * kShadowGranule;  // smallest escaped object

TEST(ShadowLargeObject, LastBytePassesAndOnePastTraps) {
  ShadowRig rig;
  for (const uint32_t size : {kEscapeBytes, kEscapeBytes + 8, 3 * kEscapeBytes + 24}) {
    const ShadowPtr p = rig.rt->Malloc(rig.cpu(), size);
    EXPECT_TRUE(rig.Passes(p, 1)) << size;
    EXPECT_TRUE(rig.Passes(ShAdd(p, size - 1), 1, AccessType::kWrite)) << size;
    EXPECT_TRUE(rig.Passes(ShAdd(p, size - 8), 8)) << size;
    EXPECT_FALSE(rig.Passes(ShAdd(p, size), 1)) << size;
    EXPECT_FALSE(rig.Passes(ShAdd(p, size - 4), 8, AccessType::kWrite)) << size;
    EXPECT_FALSE(rig.Passes(ShAdd(p, -1), 1)) << size;
  }
  EXPECT_EQ(rig.rt->stats().violations, 9u);
}

TEST(ShadowLargeObject, EveryEscapeCheckCountsAndCharges) {
  ShadowRig rig;
  const ShadowPtr small = rig.rt->Malloc(rig.cpu(), kEscapeBytes - kShadowGranule);
  const ShadowPtr big = rig.rt->Malloc(rig.cpu(), kEscapeBytes);
  ASSERT_TRUE(rig.Passes(small, 8));
  EXPECT_EQ(rig.rt->stats().slow_path_checks, 0u);  // one granule short of the escape
  // The first big check walks the side table; the rest hit the memo. Each
  // one still counts as a slow-path check and pays the same table-walk charge.
  uint64_t first_charge = 0;
  for (uint32_t i = 0; i < 10; ++i) {
    const uint64_t raw_before = rig.cpu().events().cycles;
    ASSERT_TRUE(rig.Passes(ShAdd(big, i * 4096), 8));
    const uint64_t charge = rig.cpu().events().cycles - raw_before;
    if (i == 0) {
      first_charge = charge;
      EXPECT_GT(charge, 0u);
    }
    EXPECT_EQ(charge, first_charge) << i;
    EXPECT_EQ(rig.rt->stats().slow_path_checks, i + 1u);
  }
  ASSERT_TRUE(rig.Passes(small, 8));
  EXPECT_EQ(rig.rt->stats().slow_path_checks, 10u);
  EXPECT_FALSE(rig.Passes(ShAdd(big, kEscapeBytes), 1));  // a failed escape check counts too
  EXPECT_EQ(rig.rt->stats().slow_path_checks, 11u);
  EXPECT_EQ(rig.rt->stats().checks, 13u);
}

TEST(ShadowLargeObject, AlternatingBigObjectsKeepTheirOwnBounds) {
  ShadowRig rig;
  const uint32_t size_a = kEscapeBytes + 64;
  const uint32_t size_b = 2 * kEscapeBytes + 4096;
  const ShadowPtr a = rig.rt->Malloc(rig.cpu(), size_a);
  const ShadowPtr b = rig.rt->Malloc(rig.cpu(), size_b);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(rig.Passes(ShAdd(a, size_a - 1), 1)) << i;
    EXPECT_TRUE(rig.Passes(ShAdd(b, size_b - 1), 1)) << i;
    // One past a lands inside b's storage, but a's anchor judges it.
    EXPECT_FALSE(rig.Passes(ShAdd(a, size_a + 64), 1)) << i;
    EXPECT_TRUE(rig.Passes(ShAdd(b, size_a + 64), 1)) << i;
    EXPECT_FALSE(rig.Passes(ShAdd(b, size_b), 1)) << i;
  }
  EXPECT_EQ(rig.rt->stats().slow_path_checks, 100u);
  EXPECT_EQ(rig.rt->stats().violations, 40u);
}

TEST(ShadowLargeObject, ReallocAtTheSameBaseUsesTheNewExtent) {
  ShadowRig rig;
  // Free, then a smaller malloc that first-fit places at the same base.
  const uint32_t big = 2 * kEscapeBytes;
  const ShadowPtr p = rig.rt->Malloc(rig.cpu(), big);
  ASSERT_TRUE(rig.Passes(ShAdd(p, big - 1), 1));  // memoizes p's extent
  rig.rt->Free(rig.cpu(), p);
  const uint32_t smaller = kEscapeBytes + 8;
  const ShadowPtr q = rig.rt->Malloc(rig.cpu(), smaller);
  ASSERT_EQ(ShAnchor(q), ShAnchor(p));
  EXPECT_TRUE(rig.Passes(ShAdd(q, smaller - 1), 1));
  EXPECT_FALSE(rig.Passes(ShAdd(q, smaller), 1));
  EXPECT_FALSE(rig.Passes(ShAdd(q, big - 1), 1));

  // Re-tagging caller-owned storage (a stack slot reused by the next frame)
  // with a larger extent, without a free in between.
  const uint32_t storage = rig.heap->Alloc(rig.cpu(), 4 * kEscapeBytes, kShadowGranule);
  const ShadowPtr s1 = rig.rt->SpecifyBounds(rig.cpu(), storage, kEscapeBytes);
  EXPECT_FALSE(rig.Passes(ShAdd(s1, kEscapeBytes), 1));  // memoizes s1's extent
  const ShadowPtr s2 = rig.rt->SpecifyBounds(rig.cpu(), storage, 3 * kEscapeBytes);
  ASSERT_EQ(ShAnchor(s2), ShAnchor(s1));
  EXPECT_TRUE(rig.Passes(ShAdd(s2, kEscapeBytes), 1));
  EXPECT_TRUE(rig.Passes(ShAdd(s2, 3 * kEscapeBytes - 1), 1));
  EXPECT_FALSE(rig.Passes(ShAdd(s2, 3 * kEscapeBytes), 1));
}

TEST(ShadowLargeObject, StaleAnchorAfterFreeTraps) {
  ShadowRig rig;
  const ShadowPtr x = rig.rt->Malloc(rig.cpu(), 64);
  const ShadowPtr p = rig.rt->Malloc(rig.cpu(), 2 * kEscapeBytes);
  const ShadowPtr inner = ShAdd(p, 4096);
  ASSERT_TRUE(rig.Passes(inner, 8));  // memoizes p's extent
  rig.rt->Free(rig.cpu(), p);
  EXPECT_FALSE(rig.Passes(p, 1));
  EXPECT_FALSE(rig.Passes(inner, 8, AccessType::kWrite));
  // The cleared entries trap before the escape path is reached.
  EXPECT_EQ(rig.rt->stats().slow_path_checks, 1u);
  EXPECT_EQ(rig.rt->stats().violations, 2u);

  // A newer big object over the freed storage puts escape entries back under
  // p's anchor; the side table still knows no object based there.
  rig.rt->Free(rig.cpu(), x);
  const ShadowPtr q = rig.rt->Malloc(rig.cpu(), 2 * kEscapeBytes);
  ASSERT_EQ(ShAnchor(q), ShAnchor(x));
  EXPECT_FALSE(rig.Passes(p, 1));
  EXPECT_FALSE(rig.Passes(inner, 8));
  EXPECT_TRUE(rig.Passes(ShAdd(q, ShAnchor(p) - ShAnchor(q)), 8));
  EXPECT_EQ(rig.rt->stats().slow_path_checks, 4u);
  EXPECT_EQ(rig.rt->stats().violations, 4u);
}

}  // namespace
}  // namespace sgxb
