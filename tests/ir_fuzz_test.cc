// Differential fuzzing of the instrumentation passes: generate random (but
// memory-safe) canonical IR programs, run them uninstrumented and under each
// scheme's lowering, and require
//   (1) identical results (passes preserve semantics),
//   (2) zero violations (no false positives on safe programs),
// and for deliberately-broken variants,
//   (3) the SGXBounds pass traps while the uninstrumented run corrupts.

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/ir/builder.h"
#include "src/ir/exec/decoder.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"
#include "src/policy/l4ptr/l4ptr_runtime.h"
#include "src/policy/shadow/shadow_runtime.h"

namespace sgxb {
namespace {

// The instrumentation a program runs under. l4ptr and shadow are the
// schemes whose runtimes the engines call through the vtable
// (ops::WithScheme's fallback); SGXBounds and ASan take the direct path.
enum class Hardening { kNone, kSgx, kSgxOpt, kAsan, kMpx, kL4Ptr, kShadow };

// One enclave whose interpreter has exactly the runtime `hardening` needs
// attached (an interpreter serves one scheme).
struct FuzzRig {
  explicit FuzzRig(Hardening hardening = Hardening::kNone) {
    EnclaveConfig cfg;
    cfg.space_bytes = 256 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 64 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 4 * kMiB);
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    switch (hardening) {
      case Hardening::kNone:
        break;
      case Hardening::kSgx:
      case Hardening::kSgxOpt:
        sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
        interp->AttachScheme(sgx.get());
        break;
      case Hardening::kAsan:
        asan = std::make_unique<AsanRuntime>(enclave.get(), heap.get());
        interp->AttachScheme(asan.get());
        break;
      case Hardening::kMpx:
        mpx = std::make_unique<MpxRuntime>(enclave.get());
        interp->AttachMpx(mpx.get());
        break;
      case Hardening::kL4Ptr:
        l4ptr = std::make_unique<L4PtrRuntime>(enclave.get(), heap.get());
        interp->AttachScheme(l4ptr.get());
        break;
      case Hardening::kShadow:
        shadow = std::make_unique<ShadowRuntime>(enclave.get(), heap.get());
        interp->AttachScheme(shadow.get());
        break;
    }
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<AsanRuntime> asan;
  std::unique_ptr<MpxRuntime> mpx;
  std::unique_ptr<L4PtrRuntime> l4ptr;
  std::unique_ptr<ShadowRuntime> shadow;
  std::unique_ptr<Interpreter> interp;
};

// Instruments `fn` for `hardening` (each scheme's default lowering).
void Instrument(IrFunction& fn, Hardening hardening) {
  switch (hardening) {
    case Hardening::kNone:
      break;
    case Hardening::kSgx:
      RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), {});
      break;
    case Hardening::kSgxOpt: {
      CheckPassConfig options;
      options.elide_safe = true;
      options.hoist_loops = true;
      RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), options);
      break;
    }
    case Hardening::kAsan:
      RunCheckPipeline(fn, AsanCheckLowering(), {});
      break;
    case Hardening::kMpx:
      RunCheckPipeline(fn, MpxCheckLowering(), {});
      break;
    case Hardening::kL4Ptr:
      RunCheckPipeline(fn, TaggedSchemeCheckLowering(kL4Granule), CheckPassConfig{});
      break;
    case Hardening::kShadow:
      RunCheckPipeline(fn, TaggedSchemeCheckLowering(kShadowGranule), CheckPassConfig{});
      break;
  }
}

// Folds `w` and the loaded value `v` (loop counter `iv`) through every
// compute micro-op the decoder emits: each ALU op with a slot and with a
// constant right operand (udiv and urem by nonzero divisors only, shifts
// both plain and in the fused xorshift pairs) and compares that feed no
// branch. Pure arithmetic, so the passes leave it alone and only the
// engines' compute templates and bodies are under test.
ValueId MixAllComputeOps(IrBuilder& b, Rng& rng, ValueId w, ValueId v, ValueId iv) {
  const auto k = [&](uint64_t bound) {
    return b.Const(static_cast<int64_t>(1 + rng.NextBounded(bound)));
  };
  const ValueId d = b.Bin(IrOp::kOr, v, b.Const(1));  // a nonzero divisor
  ValueId m = b.Bin(IrOp::kSub, w, k(1000));
  m = b.Bin(IrOp::kSub, m, iv);
  m = b.Bin(IrOp::kAnd, m, b.Const(0xfffffff));
  m = b.Bin(IrOp::kOr, m, d);
  m = b.Bin(IrOp::kAnd, m, w);
  m = b.Bin(IrOp::kOr, m, k(255));
  m = b.Bin(IrOp::kXor, m, b.Const(0x5bd1e995));
  m = b.Bin(IrOp::kXor, m, v);
  m = b.Mul(m, v);
  m = b.Bin(IrOp::kUDiv, m, d);
  m = b.Bin(IrOp::kUDiv, m, k(7));
  m = b.Bin(IrOp::kURem, m, k(100000));
  m = b.Add(m, b.Bin(IrOp::kURem, w, d));
  m = b.Bin(IrOp::kShl, m, k(20));
  m = b.Bin(IrOp::kLShr, m, k(10));
  m = b.Bin(IrOp::kShl, m, iv);
  m = b.Bin(IrOp::kLShr, m, v);
  m = b.Bin(IrOp::kXor, m, b.Bin(IrOp::kShl, m, b.Const(13)));
  m = b.Bin(IrOp::kXor, m, b.Bin(IrOp::kLShr, m, b.Const(7)));
  const ValueId below = b.Cmp(IrCmp::kULt, m, v);
  const ValueId equal = b.Cmp(IrCmp::kEq, iv, b.Const(3));
  return b.Add(m, b.Add(below, equal));
}

// Generates a random program of `n_arrays` arrays, a few counted loops doing
// stores/loads/arithmetic at safe indices, returning a checksum. With
// `overflow`, one loop bound exceeds its array by one element.
IrFunction GenerateProgram(uint64_t seed, bool overflow) {
  Rng rng(seed);
  IrBuilder b("fuzz");
  const uint32_t n_arrays = 2 + rng.NextBounded(3);
  std::vector<ValueId> arrays;
  std::vector<uint32_t> sizes;  // in i64 elements
  for (uint32_t a = 0; a < n_arrays; ++a) {
    const uint32_t elems = 8 + static_cast<uint32_t>(rng.NextBounded(120));
    sizes.push_back(elems);
    if (rng.NextBounded(2) == 0) {
      arrays.push_back(b.Malloc(b.Const(elems * 8)));
    } else {
      arrays.push_back(b.Alloca(elems * 8));
    }
  }
  // Init loops.
  for (uint32_t a = 0; a < n_arrays; ++a) {
    auto loop = b.BeginCountedLoop(b.Const(0), b.Const(sizes[a]), 1);
    const ValueId v = b.Mul(loop.iv, b.Const(static_cast<int64_t>(rng.NextBounded(13) + 1)));
    b.Store(IrType::kI64, v, b.Gep(arrays[a], loop.iv, 8));
    b.EndLoop(loop);
  }
  // Compute loops: read one array, combine, store into another.
  const uint32_t acc_cell = 0;
  const ValueId acc = b.Alloca(8);
  b.Store(IrType::kI64, b.Const(0), acc);
  for (int pass = 0; pass < 3; ++pass) {
    const uint32_t src = static_cast<uint32_t>(rng.NextBounded(n_arrays));
    const uint32_t dst = static_cast<uint32_t>(rng.NextBounded(n_arrays));
    const uint32_t limit = std::min(sizes[src], sizes[dst]);
    const uint32_t bound = overflow && pass == 1 ? limit + 1 : limit;
    auto loop = b.BeginCountedLoop(b.Const(0), b.Const(bound), 1);
    const ValueId v = b.Load(IrType::kI64, b.Gep(arrays[src], loop.iv, 8));
    const ValueId w = b.Add(v, b.Const(static_cast<int64_t>(rng.NextBounded(97))));
    b.Store(IrType::kI64, w, b.Gep(arrays[dst], loop.iv, 8));
    const ValueId mix = MixAllComputeOps(b, rng, w, v, loop.iv);
    const ValueId old = b.Load(IrType::kI64, acc);
    b.Store(IrType::kI64, b.Add(old, mix), acc);
    b.EndLoop(loop);
  }
  (void)acc_cell;
  b.Ret(b.Load(IrType::kI64, acc));
  return b.Finish();
}

class IrFuzz : public ::testing::TestWithParam<int> {};

// Every compute micro-op (add through icmp.i in the UOp list) is in every
// generated program, so the three-engine differential below covers each
// one's JIT template and shared body.
TEST_P(IrFuzz, ProgramsDecodeEveryComputeMicroOp) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  for (const bool overflow : {false, true}) {
    const DecodedFunction df = DecodeFunction(GenerateProgram(seed, overflow));
    for (uint8_t op = static_cast<uint8_t>(UOp::kAdd);
         op <= static_cast<uint8_t>(UOp::kICmpImm); ++op) {
      EXPECT_GT(df.CountUOp(static_cast<UOp>(op)), 0u)
          << UOpName(static_cast<UOp>(op)) << " seed " << seed;
    }
  }
}

TEST_P(IrFuzz, PassesPreserveSemanticsOnSafePrograms) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  uint64_t reference = 0;
  {
    FuzzRig rig;
    IrFunction fn = GenerateProgram(seed, /*overflow=*/false);
    reference = rig.interp->Run(fn, rig.enclave->main_cpu());
  }
  {
    for (const bool elide : {false, true}) {
      for (const bool hoist : {false, true}) {
        FuzzRig inner(Hardening::kSgx);
        IrFunction hardened = GenerateProgram(seed, false);
        CheckPassConfig options;
        options.elide_safe = elide;
        options.hoist_loops = hoist;
        RunCheckPipeline(hardened, TaggedSchemeCheckLowering(0), options);
        EXPECT_EQ(inner.interp->Run(hardened, inner.enclave->main_cpu()), reference)
            << "seed " << seed << " elide " << elide << " hoist " << hoist;
        EXPECT_EQ(inner.sgx->stats().violations, 0u);
      }
    }
  }
  {
    FuzzRig rig(Hardening::kAsan);
    IrFunction hardened = GenerateProgram(seed, false);
    RunCheckPipeline(hardened, AsanCheckLowering(), {});
    EXPECT_EQ(rig.interp->Run(hardened, rig.enclave->main_cpu()), reference);
    EXPECT_EQ(rig.asan->stats().reports, 0u);
  }
  {
    FuzzRig rig(Hardening::kMpx);
    IrFunction hardened = GenerateProgram(seed, false);
    RunCheckPipeline(hardened, MpxCheckLowering(), {});
    EXPECT_EQ(rig.interp->Run(hardened, rig.enclave->main_cpu()), reference);
    EXPECT_EQ(rig.mpx->stats().violations, 0u);
  }
  // The vtable-dispatched schemes trap on any violation, so an equal result
  // also proves there was none.
  for (const Hardening hardening : {Hardening::kL4Ptr, Hardening::kShadow}) {
    FuzzRig rig(hardening);
    IrFunction hardened = GenerateProgram(seed, false);
    Instrument(hardened, hardening);
    EXPECT_EQ(rig.interp->Run(hardened, rig.enclave->main_cpu()), reference)
        << "seed " << seed << " hardening " << static_cast<int>(hardening);
  }
}

TEST_P(IrFuzz, SgxPassTrapsOnOverflowingVariant) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  // Uninstrumented: runs to completion (silent corruption).
  {
    FuzzRig rig;
    IrFunction fn = GenerateProgram(seed, /*overflow=*/true);
    EXPECT_NO_THROW(rig.interp->Run(fn, rig.enclave->main_cpu()));
  }
  // Hardened: must trap, with or without the optimizations.
  for (const bool opts : {false, true}) {
    FuzzRig rig(Hardening::kSgx);
    IrFunction fn = GenerateProgram(seed, true);
    CheckPassConfig options;
    options.elide_safe = opts;
    options.hoist_loops = opts;
    RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), options);
    EXPECT_THROW(rig.interp->Run(fn, rig.enclave->main_cpu()), SimTrap)
        << "seed " << seed << " opts " << opts;
  }
}

// --- engine differential coverage ----------------------------------------------
//
// Every random program - safe and overflowing, under every scheme's
// instrumentation - must behave identically on the reference, threaded, and
// jit engines: same return value or same trap, same interpreter stats, and
// bit-identical PerfCounters (the engines' definition of "same simulation").

struct EngineOutcome {
  bool trapped = false;
  std::string trap_detail;
  uint64_t result = 0;
  PerfCounters counters;
  InterpStats stats;
};

EngineOutcome RunUnderEngine(IrEngine engine, uint64_t seed, bool overflow,
                             Hardening hardening) {
  FuzzRig rig(hardening);
  rig.interp->set_engine(engine);
  IrFunction fn = GenerateProgram(seed, overflow);
  Instrument(fn, hardening);
  EngineOutcome out;
  try {
    out.result = rig.interp->Run(fn, rig.enclave->main_cpu());
  } catch (const SimTrap& trap) {
    out.trapped = true;
    out.trap_detail = trap.what();
  }
  out.counters = rig.enclave->main_cpu().counters();
  out.stats = rig.interp->stats();
  return out;
}

TEST_P(IrFuzz, EnginesAgreeOnEveryProgram) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  for (const bool overflow : {false, true}) {
    for (const Hardening hardening :
         {Hardening::kNone, Hardening::kSgx, Hardening::kSgxOpt, Hardening::kAsan,
          Hardening::kMpx, Hardening::kL4Ptr, Hardening::kShadow}) {
      const EngineOutcome ref =
          RunUnderEngine(IrEngine::kReference, seed, overflow, hardening);
      for (const IrEngine other : {IrEngine::kThreaded, IrEngine::kJit}) {
        const EngineOutcome out =
            RunUnderEngine(other, seed, overflow, hardening);
        const std::string what = "seed " + std::to_string(seed) + " overflow " +
                                 std::to_string(overflow) + " hardening " +
                                 std::to_string(static_cast<int>(hardening)) +
                                 " engine " + IrEngineName(other);
        EXPECT_EQ(ref.trapped, out.trapped) << what;
        EXPECT_EQ(ref.trap_detail, out.trap_detail) << what;
        EXPECT_EQ(ref.result, out.result) << what;
        EXPECT_TRUE(ref.counters == out.counters) << what;
        EXPECT_EQ(ref.stats.steps, out.stats.steps) << what;
        EXPECT_EQ(ref.stats.loads, out.stats.loads) << what;
        EXPECT_EQ(ref.stats.stores, out.stats.stores) << what;
        EXPECT_EQ(ref.stats.checks, out.stats.checks) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace sgxb
