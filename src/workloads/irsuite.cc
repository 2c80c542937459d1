// The "ir" suite: interpreter-driven kernels.
//
// Unlike the Phoenix/PARSEC/SPEC kernels (policy-templated C++ bodies),
// these workloads build a mini-IR program, run the policy's actual
// instrumentation pass over it, and execute it on the IR interpreter - the
// same pipeline as the paper's LLVM pass + hardware, scaled down. They are
// the workloads whose host cost is interpreter dispatch, which is what the
// threaded engine (src/ir/exec/) accelerates; simulated results are
// engine-invariant.
//
//   ir_copy     Fig. 4 array copy at scale: init + copy + checksum loops.
//               Dense gep+check+access triples (superinstruction fusion).
//   ir_mix      ALU-heavy xorshift mixing over a table: ~10 ALU ops per
//               access, the dispatch-bound worst case for the interpreter.
//   ir_stencil  3-point stencil with a carried accumulator phi: fusion plus
//               edge-stub parallel copies on every back edge.
//   ir_prng     xorshift64 stream generation, rounds unrolled straight-line
//               in the builder: hundreds of ALU steps per memory access, the
//               purely interpreter-bound case (dispatch is ~all of the host
//               cost; the cache model is visited once per sample).

#include "src/ir/builder.h"
#include "src/workloads/run_ir.h"
#include "src/workloads/workload.h"

namespace sgxb {
namespace {

// Elements per loop at size XS; multiplied by SizeMultiplier (1..16).
constexpr uint32_t kCopyBaseN = 24 * 1024;
constexpr uint32_t kMixBaseN = 12 * 1024;
constexpr uint32_t kStencilBaseN = 16 * 1024;
constexpr uint32_t kPrngBaseN = 6 * 1024;

IrFunction BuildCopyKernel(uint32_t n) {
  IrBuilder b("ir_copy");
  const ValueId bytes = b.Const(static_cast<int64_t>(n) * 8);
  const ValueId src = b.Malloc(bytes);
  const ValueId dst = b.Malloc(bytes);
  auto init = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Store(IrType::kI64, b.Mul(init.iv, b.Const(2654435761)), b.Gep(src, init.iv, 8));
  b.EndLoop(init);
  auto copy = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Store(IrType::kI64, b.Load(IrType::kI64, b.Gep(src, copy.iv, 8)),
          b.Gep(dst, copy.iv, 8));
  b.EndLoop(copy);
  // Checksum so the copy is observable; accumulate through memory (the mini
  // IR has no loop-carried reduction phi helper, and the extra access stream
  // is representative anyway).
  const ValueId acc = b.Malloc(b.Const(8));
  b.Store(IrType::kI64, b.Const(0), acc);
  auto sum = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  const ValueId v = b.Load(IrType::kI64, b.Gep(dst, sum.iv, 8));
  b.Store(IrType::kI64, b.Add(b.Load(IrType::kI64, acc), v), acc);
  b.EndLoop(sum);
  const ValueId result = b.Load(IrType::kI64, acc);
  b.Free(src);
  b.Free(dst);
  b.Free(acc);
  b.Ret(result);
  return b.Finish();
}

IrFunction BuildMixKernel(uint32_t n, uint32_t rounds) {
  IrBuilder b("ir_mix");
  const ValueId bytes = b.Const(static_cast<int64_t>(n) * 8);
  const ValueId table = b.Malloc(bytes);
  auto init = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Store(IrType::kI64, b.Add(b.Mul(init.iv, b.Const(0x9e3779b9)), b.Const(1)),
          b.Gep(table, init.iv, 8));
  b.EndLoop(init);
  // Each round xorshift-mixes every element in place: ~10 ALU micro-ops per
  // memory access, so host time is dominated by dispatch, not simulation of
  // memory.
  auto outer = b.BeginCountedLoop(b.Const(0), b.Const(rounds), 1);
  auto inner = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  const ValueId slot = b.Gep(table, inner.iv, 8);
  ValueId x = b.Load(IrType::kI64, slot);
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(13)));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kLShr, x, b.Const(7)));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(17)));
  x = b.Add(x, b.Mul(inner.iv, b.Const(0x85ebca6b)));
  x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kLShr, x, b.Const(33)));
  b.Store(IrType::kI64, x, slot);
  b.EndLoop(inner);
  b.EndLoop(outer);
  const ValueId result = b.Load(IrType::kI64, b.Gep(table, b.Const(0), 8));
  b.Free(table);
  b.Ret(result);
  return b.Finish();
}

IrFunction BuildStencilKernel(uint32_t n, uint32_t sweeps) {
  IrBuilder b("ir_stencil");
  const ValueId bytes = b.Const(static_cast<int64_t>(n) * 8);
  const ValueId a = b.Malloc(bytes);
  const ValueId out = b.Malloc(bytes);
  auto init = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Store(IrType::kI64, b.Mul(init.iv, init.iv), b.Gep(a, init.iv, 8));
  b.EndLoop(init);
  // sweeps x (n-2) three-point updates: out[i+1] = a[i] + 2*a[i+1] + a[i+2],
  // i in [0, n-2) - byte offsets keep every access in bounds.
  auto sweep = b.BeginCountedLoop(b.Const(0), b.Const(sweeps), 1);
  auto body = b.BeginCountedLoop(b.Const(0), b.Const(n - 2), 1);
  const ValueId left = b.Load(IrType::kI64, b.Gep(a, body.iv, 8, /*offset=*/0));
  const ValueId mid = b.Load(IrType::kI64, b.Gep(a, body.iv, 8, /*offset=*/8));
  const ValueId right = b.Load(IrType::kI64, b.Gep(a, body.iv, 8, /*offset=*/16));
  const ValueId acc = b.Add(b.Add(left, right), b.Mul(mid, b.Const(2)));
  b.Store(IrType::kI64, acc, b.Gep(out, body.iv, 8, /*offset=*/8));
  b.EndLoop(body);
  b.EndLoop(sweep);
  const ValueId result = b.Load(IrType::kI64, b.Gep(out, b.Const(n / 2), 8));
  b.Free(a);
  b.Free(out);
  b.Ret(result);
  return b.Finish();
}

IrFunction BuildPrngKernel(uint32_t n, uint32_t rounds) {
  IrBuilder b("ir_prng");
  const ValueId bytes = b.Const(static_cast<int64_t>(n) * 8);
  const ValueId buf = b.Malloc(bytes);
  auto gen = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  // Seed each sample from the index (no loop-carried state needed), then run
  // `rounds` xorshift rounds unrolled straight-line by the builder: ~6 ALU
  // instructions per round, one store per sample.
  ValueId x = b.Bin(IrOp::kXor, b.Mul(gen.iv, b.Const(static_cast<int64_t>(0x9e3779b97f4a7c15ULL))),
                    b.Const(static_cast<int64_t>(0x2545f4914f6cdd1dULL)));
  for (uint32_t r = 0; r < rounds; ++r) {
    x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(13)));
    x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kLShr, x, b.Const(7)));
    x = b.Bin(IrOp::kXor, x, b.Bin(IrOp::kShl, x, b.Const(17)));
  }
  b.Store(IrType::kI64, x, b.Gep(buf, gen.iv, 8));
  b.EndLoop(gen);
  const ValueId result = b.Load(IrType::kI64, b.Gep(buf, b.Const(n / 2), 8));
  b.Free(buf);
  b.Ret(result);
  return b.Finish();
}

struct IrCopyBody {
  template <typename P>
  void operator()(Env<P>& env, const WorkloadConfig& cfg) const {
    RunIrFunction(env, BuildCopyKernel(kCopyBaseN * SizeMultiplier(cfg.size)));
  }
};

struct IrMixBody {
  template <typename P>
  void operator()(Env<P>& env, const WorkloadConfig& cfg) const {
    RunIrFunction(env, BuildMixKernel(kMixBaseN * SizeMultiplier(cfg.size), /*rounds=*/4));
  }
};

struct IrStencilBody {
  template <typename P>
  void operator()(Env<P>& env, const WorkloadConfig& cfg) const {
    RunIrFunction(env,
                  BuildStencilKernel(kStencilBaseN * SizeMultiplier(cfg.size), /*sweeps=*/4));
  }
};

struct IrPrngBody {
  template <typename P>
  void operator()(Env<P>& env, const WorkloadConfig& cfg) const {
    RunIrFunction(env,
                  BuildPrngKernel(kPrngBaseN * SizeMultiplier(cfg.size), /*rounds=*/16));
  }
};

}  // namespace

void RegisterIrWorkloads(WorkloadRegistry& registry) {
  REGISTER_WORKLOAD(registry, "ir", "ir_copy", false, IrCopyBody);
  REGISTER_WORKLOAD(registry, "ir", "ir_mix", false, IrMixBody);
  REGISTER_WORKLOAD(registry, "ir", "ir_stencil", false, IrStencilBody);
  REGISTER_WORKLOAD(registry, "ir", "ir_prng", false, IrPrngBody);
}

}  // namespace sgxb
