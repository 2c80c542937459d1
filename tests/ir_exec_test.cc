// Directed tests for the pre-decoded direct-threaded engine (src/ir/exec/):
// the edge cases a differential fuzzer is unlikely to pin down - phi-cycle
// parallel copies, argument/div-by-zero quirks, step-limit boundaries that
// land inside fused superinstructions, decode caching, and the decoder's
// fusion decisions.

#include <gtest/gtest.h>

#include <memory>

#include "src/enclave/trap.h"
#include "src/ir/builder.h"
#include "src/ir/exec/decoder.h"
#include "src/ir/interp.h"
#include "src/ir/opt/pipeline.h"

namespace sgxb {
namespace {

// An IrInstr with no symbol (the fields in declaration order).
IrInstr Instr(ValueId id, IrOp op, IrType type, std::vector<ValueId> args, int64_t imm = 0,
              int64_t imm2 = 0) {
  IrInstr in;
  in.id = id;
  in.op = op;
  in.type = type;
  in.args = std::move(args);
  in.imm = imm;
  in.imm2 = imm2;
  return in;
}

struct Rig {
  Rig() {
    EnclaveConfig cfg;
    cfg.space_bytes = 64 * kMiB;
    enclave = std::make_unique<Enclave>(cfg);
    heap = std::make_unique<Heap>(enclave.get(), 16 * kMiB);
    stack = std::make_unique<StackAllocator>(enclave.get(), 1 * kMiB);
    sgx = std::make_unique<SgxBoundsRuntime>(enclave.get(), heap.get());
    interp = std::make_unique<Interpreter>(enclave.get(), heap.get(), stack.get());
    interp->AttachScheme(sgx.get());
  }
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<StackAllocator> stack;
  std::unique_ptr<SgxBoundsRuntime> sgx;
  std::unique_ptr<Interpreter> interp;
};

// Runs `fn` on a fresh rig under `engine`; returns {trapped, result, steps}.
struct Outcome {
  bool trapped = false;
  uint64_t result = 0;
  uint64_t steps = 0;
  PerfCounters counters;
};

Outcome RunOn(IrEngine engine, const IrFunction& fn,
              const std::vector<uint64_t>& args = {},
              uint64_t max_steps = 200 * 1000 * 1000) {
  Rig rig;
  rig.interp->set_engine(engine);
  Outcome out;
  try {
    out.result = rig.interp->Run(fn, rig.enclave->main_cpu(), args, max_steps);
  } catch (const SimTrap&) {
    out.trapped = true;
  }
  out.steps = rig.interp->stats().steps;
  out.counters = rig.enclave->main_cpu().counters();
  return out;
}

// A hand-built function whose loop header carries a phi SWAP - the parallel
// copy (a, b) <- (b, a) that a naive sequential lowering gets wrong and that
// forces the decoder's cycle-breaking temporary:
//
//   entry: a0=1 b0=2 i0=0 limit=3 ten=10; br loop
//   loop:  a=phi(a0,b) b=phi(b0,a) i=phi(i0,inext)
//          inext=i+1; c=inext<limit; condbr c loop exit
//   exit:  ret a*ten + b
//
// Two full swaps before exit, so the correct answer is 1*10 + 2 = 12.
IrFunction BuildPhiSwap() {
  IrFunction fn;
  fn.name = "phi_swap";
  fn.num_values = 14;
  IrBlock entry;
  entry.instrs.push_back(Instr(1, IrOp::kConst, IrType::kI64, {}, 1));
  entry.instrs.push_back(Instr(2, IrOp::kConst, IrType::kI64, {}, 2));
  entry.instrs.push_back(Instr(3, IrOp::kConst, IrType::kI64, {}, 0));
  entry.instrs.push_back(Instr(9, IrOp::kConst, IrType::kI64, {}, 3));
  entry.instrs.push_back(Instr(11, IrOp::kConst, IrType::kI64, {}, 10));
  entry.instrs.push_back(Instr(0, IrOp::kBr, IrType::kI64, {}, 1));
  IrBlock loop;
  loop.preds = {0, 1};
  loop.instrs.push_back(Instr(4, IrOp::kPhi, IrType::kI64, {1, 5}));
  loop.instrs.push_back(Instr(5, IrOp::kPhi, IrType::kI64, {2, 4}));
  loop.instrs.push_back(Instr(6, IrOp::kPhi, IrType::kI64, {3, 7}));
  loop.instrs.push_back(Instr(7, IrOp::kAdd, IrType::kI64, {6, 1}));
  loop.instrs.push_back(
      Instr(8, IrOp::kICmp, IrType::kI64, {7, 9}, static_cast<int64_t>(IrCmp::kULt)));
  loop.instrs.push_back(Instr(0, IrOp::kCondBr, IrType::kI64, {8}, 1, 2));
  IrBlock exit;
  exit.preds = {1};
  exit.instrs.push_back(Instr(12, IrOp::kMul, IrType::kI64, {4, 11}));
  exit.instrs.push_back(Instr(13, IrOp::kAdd, IrType::kI64, {12, 5}));
  exit.instrs.push_back(Instr(0, IrOp::kRet, IrType::kI64, {13}));
  fn.blocks = {entry, loop, exit};
  return fn;
}

TEST(IrExec, PhiSwapCycleMatchesReference) {
  const IrFunction fn = BuildPhiSwap();
  ASSERT_EQ(fn.Verify(), "");
  const Outcome ref = RunOn(IrEngine::kReference, fn);
  EXPECT_EQ(ref.result, 12u);
  for (const IrEngine engine : {IrEngine::kThreaded, IrEngine::kJit}) {
    const Outcome out = RunOn(engine, fn);
    EXPECT_EQ(out.result, 12u);
    EXPECT_EQ(ref.steps, out.steps);
    EXPECT_TRUE(ref.counters == out.counters);
  }

  // The back edge's parallel copy is a cycle: the decoder must have parked
  // one destination in a temporary and routed the stub through a free jump.
  const DecodedFunction df = DecodeFunction(fn);
  EXPECT_GE(df.phi_cycle_temps, 1u);
  EXPECT_GT(df.edge_stubs, 0u);
  EXPECT_GT(df.CountUOp(UOp::kJump), 0u);
  EXPECT_GT(df.num_slots, fn.num_values);  // temp slots appended
}

TEST(IrExec, ArgReadsZeroOutOfRange) {
  // Four declared arguments, but only one supplied at runtime: reading past
  // the supplied vector yields 0 in the reference.
  IrBuilder b("args", /*num_args=*/4);
  const ValueId in_range = b.Arg(0);
  const ValueId oob = b.Arg(3);
  b.Ret(b.Add(b.Mul(in_range, b.Const(100)), oob));
  const IrFunction fn = b.Finish();
  for (const IrEngine engine :
       {IrEngine::kReference, IrEngine::kThreaded, IrEngine::kJit}) {
    const Outcome out = RunOn(engine, fn, {7});
    EXPECT_FALSE(out.trapped);
    EXPECT_EQ(out.result, 700u);  // oob argument reads as 0
  }
}

TEST(IrExec, DivRemByZeroYieldZero) {
  IrBuilder b("divzero", /*num_args=*/1);
  const ValueId x = b.Const(12345);
  const ValueId z = b.Arg(0);  // runtime zero: no const folding
  b.Ret(b.Add(b.Bin(IrOp::kUDiv, x, z), b.Bin(IrOp::kURem, x, z)));
  const IrFunction fn = b.Finish();
  for (const IrEngine engine :
       {IrEngine::kReference, IrEngine::kThreaded, IrEngine::kJit}) {
    const Outcome out = RunOn(engine, fn, {0});
    EXPECT_FALSE(out.trapped);
    EXPECT_EQ(out.result, 0u);
    const Outcome nz = RunOn(engine, fn, {100});
    EXPECT_EQ(nz.result, 12345u / 100 + 12345u % 100);
  }
}

// Small kernel mixing fused forms: xorshift pairs, a fused compare-branch
// latch, and (once instrumented) gep+check+access superinstructions.
IrFunction BuildFusedKernel(uint32_t n) {
  IrBuilder b("fused");
  const ValueId buf = b.Malloc(b.Const(static_cast<int64_t>(n) * 8));
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  ValueId x = b.Mul(loop.iv, b.Const(0x9e3779b9));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(13)));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kLShr, x, b.Const(7)));
  b.Store(IrType::kI64, x, b.Gep(buf, loop.iv, 8));
  b.EndLoop(loop);
  const ValueId r = b.Load(IrType::kI64, b.Gep(buf, b.Const(n / 2), 8));
  b.Free(buf);
  b.Ret(r);
  return b.Finish();
}

TEST(IrExec, StepLimitTrapsIdenticallyIncludingMidFusedOp) {
  IrFunction fn = BuildFusedKernel(16);
  RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), {});
  const Outcome full = RunOn(IrEngine::kReference, fn);
  ASSERT_FALSE(full.trapped);
  // Sweep limits across several loop iterations' worth of steps: every
  // boundary - including ones inside fused pairs and gep+check+access
  // triples - must trap (or not) identically, with identical step counts
  // and identical Cpu counters at the trap point.
  for (uint64_t limit = full.steps - 40; limit <= full.steps; ++limit) {
    const Outcome ref = RunOn(IrEngine::kReference, fn, {}, limit);
    EXPECT_EQ(ref.trapped, limit < full.steps) << "limit " << limit;
    for (const IrEngine engine : {IrEngine::kThreaded, IrEngine::kJit}) {
      const Outcome out = RunOn(engine, fn, {}, limit);
      EXPECT_EQ(ref.trapped, out.trapped)
          << "limit " << limit << " engine " << IrEngineName(engine);
      EXPECT_EQ(ref.steps, out.steps)
          << "limit " << limit << " engine " << IrEngineName(engine);
      EXPECT_EQ(ref.result, out.result)
          << "limit " << limit << " engine " << IrEngineName(engine);
      EXPECT_TRUE(ref.counters == out.counters)
          << "limit " << limit << " engine " << IrEngineName(engine);
    }
  }
}

TEST(IrExec, DecoderFusesInstrumentationPatterns) {
  IrFunction fn = BuildFusedKernel(8);
  // Uninstrumented: xorshift pairs and the compare-branch latch fuse.
  {
    const DecodedFunction df = DecodeFunction(fn);
    EXPECT_GT(df.CountUOp(UOp::kXorShlImm), 0u);
    EXPECT_GT(df.CountUOp(UOp::kXorLShrImm), 0u);
    EXPECT_GT(df.CountUOp(UOp::kCmpBr), 0u);
    EXPECT_GT(df.superinstructions, 0u);
  }
  // SGXBounds-instrumented with the optimizations on: loop checks hoist to
  // the preheader, leaving gep+maskptr+access triples in the body.
  {
    IrFunction hardened = BuildFusedKernel(8);
    RunCheckPipeline(hardened, TaggedSchemeCheckLowering(0), {});
    const DecodedFunction df = DecodeFunction(hardened);
    EXPECT_GT(df.CountUOp(UOp::kGepMaskLoad) + df.CountUOp(UOp::kGepMaskStore), 0u);
  }
  // With hoisting and elision off, every access keeps its check and the full
  // gep+maskptr+check+access quad fuses.
  RunCheckPipeline(fn, TaggedSchemeCheckLowering(0),
                   CheckPassConfig{/*elide_safe=*/false, /*hoist_loops=*/false});
  {
    const DecodedFunction df = DecodeFunction(fn);
    EXPECT_GT(df.CountUOp(UOp::kGepMaskSchemeCheckLoad) +
                  df.CountUOp(UOp::kGepMaskSchemeCheckStore),
              0u);
  }
  // MPX tracking on the same function: no gep-fused form at all (bounds must
  // flow through the gep), and geps lower to their bounds-propagating form.
  {
    const DecodedFunction df = DecodeFunction(fn, /*track_mpx=*/true);
    size_t gep_fused = 0;
    for (const UOp op : {UOp::kGepMaskLoad, UOp::kGepMaskStore,
                         UOp::kGepMaskSchemeCheckLoad, UOp::kGepMaskSchemeCheckStore}) {
      gep_fused += df.CountUOp(op);
    }
    EXPECT_EQ(gep_fused, 0u);
    EXPECT_GT(df.CountUOp(UOp::kGepMpx), 0u);
  }
}

}  // namespace
}  // namespace sgxb
