// The one C++ body of every non-control micro-op.
//
// Both engines that run decoded programs execute these bodies: the
// direct-threaded loop (engine.cc) expands ExecOp<op> in each dispatch case,
// and the JIT (jit/runtime.cc) instantiates one slow-path thunk per op from
// it. Step accounting, pending-charge batching, counters, runtime calls and
// the MPX side table therefore cannot drift between the engines; only control
// flow (br, condbr, cmpbr, ret, jump) is implemented per engine, because that
// is how each engine moves its pc.
//
// Frame is the engines' shared execution state (JitFrame, jit/jit_frame.h):
// the slot array, the hot counters, and the attached host objects.

#ifndef SGXBOUNDS_SRC_IR_EXEC_OPS_H_
#define SGXBOUNDS_SRC_IR_EXEC_OPS_H_

#include <cstdint>

#include "src/asan/asan_runtime.h"
#include "src/common/check.h"
#include "src/enclave/enclave.h"
#include "src/ir/eval.h"
#include "src/ir/exec/uop.h"
#include "src/ir/scheme_rt.h"
#include "src/mpx/mpx_runtime.h"
#include "src/runtime/heap.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/bounds_runtime.h"

// The threaded engine keeps its frame in registers only if no body takes the
// frame's address out of line, so every helper here is forced inline.
#if defined(__GNUC__)
#define SGXB_OP_INLINE inline __attribute__((always_inline))
#else
#define SGXB_OP_INLINE inline
#endif

namespace sgxb {
namespace ops {

[[noreturn]] inline void ThrowStepLimit() {
  throw SimTrap(TrapKind::kIllegalInstruction, 0, "interpreter step limit exceeded");
}

// Pure compute events (Alu/Branch/Call) are commutative counts that
// nothing observes between two observable points (memory access, runtime
// call, trap, return), so they accumulate in the frame and flush just before
// each observable. Every cycle stamp the simulation can record is therefore
// identical to the reference interpreter's, which charges per instruction.
template <class Frame>
SGXB_OP_INLINE void FlushPending(Frame& f) {
  Cpu& cpu = *f.cpu;
  cpu.Alu(f.pend_alu);
  cpu.Branch(f.pend_branch);
  cpu.Call(f.pend_call);
  f.pend_alu = 0;
  f.pend_branch = 0;
  f.pend_call = 0;
}

// One simulated instruction; the reference checks max_steps at each.
template <class Frame>
SGXB_OP_INLINE void Step(Frame& f) {
  if (++f.steps > f.max_steps) {
    ThrowStepLimit();
  }
}

// A pure-compute instruction: step, charge `alu` ALU ops, write `dst`.
template <class Frame>
SGXB_OP_INLINE void Compute(Frame& f, uint32_t dst, uint64_t value, uint64_t alu = 1) {
  Step(f);
  f.pend_alu += alu;
  f.v[dst] = value;
}

// An observable instruction: step, then flush what is pending.
template <class Frame>
SGXB_OP_INLINE void StepFlush(Frame& f) {
  Step(f);
  FlushPending(f);
}

inline AccessType AccessOf(const MicroOp& u) {
  return u.flag != 0 ? AccessType::kWrite : AccessType::kRead;
}

template <class Frame>
SGXB_OP_INLINE void LoadInto(Frame& f, const MicroOp& u, uint64_t ptr) {
  uint64_t raw = 0;
  f.enclave->LoadBytes(*f.cpu, static_cast<uint32_t>(ptr), &raw, u.aux);
  f.v[u.dst] = TruncateToType(u.type, raw);
}

template <class Frame>
SGXB_OP_INLINE void StoreTo(Frame& f, const MicroOp& u, uint64_t value, uint64_t ptr) {
  const uint64_t raw = TruncateToType(u.type, value);
  f.enclave->StoreBytes(*f.cpu, static_cast<uint32_t>(ptr), &raw, u.aux);
}

// The MPX side table: bounds per SSA slot plus a validity byte.
template <class Frame>
SGXB_OP_INLINE void SetBounds(Frame& f, uint32_t id, const MpxBounds& b) {
  f.mpx_bounds[id] = b;
  f.mpx_valid[id] = 1;
}

template <class Frame>
SGXB_OP_INLINE void CopyBounds(Frame& f, uint32_t dst, uint32_t src) {
  if (f.mpx_valid[src]) {
    f.mpx_bounds[dst] = f.mpx_bounds[src];
    f.mpx_valid[dst] = 1;
  }
}

template <class Frame>
SGXB_OP_INLINE MpxBounds BoundsOrInit(const Frame& f, uint32_t id) {
  return f.mpx_valid[id] ? f.mpx_bounds[id] : MpxBounds{};
}

enum class QuadCheck { kNone, kSgx, kScheme };

// gep + maskptr [+ check] + access quads: components step and charge in
// reference order; the gep result t and the re-tagged pointer p are both
// written back before the access, so a store of either value (or a mid-quad
// trap) observes exactly the reference's state.
template <QuadCheck kCheck, bool kStore, class Frame>
SGXB_OP_INLINE void GepMaskAccess(Frame& f, const MicroOp& u) {
  uint64_t* const v = f.v;
  const uint64_t packed = static_cast<uint64_t>(u.imm);
  const uint64_t t = v[u.a] + v[u.b] * (packed >> 32) + (packed & 0xffffffffULL);
  Compute(f, u.c, t, 2);
  const uint64_t p = (v[u.a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
  Compute(f, static_cast<uint32_t>(u.imm2), p, 2);
  Step(f);
  if constexpr (kCheck != QuadCheck::kNone) {
    ++f.checks;
    FlushPending(f);
    if constexpr (kCheck == QuadCheck::kSgx) {
      f.sgx->CheckAccess(*f.cpu, p, u.aux, AccessOf(u));
    } else {
      f.scheme->IrCheck(*f.cpu, p, u.aux, AccessOf(u));
    }
    Step(f);
  }
  if constexpr (kStore) {
    ++f.stores;
  } else {
    ++f.loads;
  }
  if constexpr (kCheck == QuadCheck::kNone) {
    FlushPending(f);  // a check already flushed; nothing is pending after it
  }
  if constexpr (kStore) {
    StoreTo(f, u, v[u.dst], p);
  } else {
    LoadInto(f, u, p);
  }
}

// Executes the micro-op `u` (whose opcode is kOp) on frame `f`. Throws
// SimTrap on a step-limit overrun or a runtime-detected violation; the
// caller restores the interpreter invariants.
template <UOp kOp, class Frame>
SGXB_OP_INLINE void ExecOp(Frame& f, const MicroOp& u) {
  uint64_t* const v = f.v;
  Cpu& cpu = *f.cpu;
  switch (kOp) {
    case UOp::kConst:
      Step(f);
      v[u.dst] = static_cast<uint64_t>(u.imm);
      return;
    case UOp::kArg:
      Step(f);
      v[u.dst] = u.imm >= 0 && u.imm < static_cast<int64_t>(f.nargs)
                     ? f.args[static_cast<size_t>(u.imm)]
                     : 0;
      return;

    case UOp::kAdd:
      return Compute(f, u.dst, v[u.a] + v[u.b]);
    case UOp::kSub:
      return Compute(f, u.dst, v[u.a] - v[u.b]);
    case UOp::kMul:
      return Compute(f, u.dst, v[u.a] * v[u.b]);
    case UOp::kUDiv:
      return Compute(f, u.dst, v[u.b] == 0 ? 0 : v[u.a] / v[u.b]);
    case UOp::kURem:
      return Compute(f, u.dst, v[u.b] == 0 ? 0 : v[u.a] % v[u.b]);
    case UOp::kAnd:
      return Compute(f, u.dst, v[u.a] & v[u.b]);
    case UOp::kOr:
      return Compute(f, u.dst, v[u.a] | v[u.b]);
    case UOp::kXor:
      return Compute(f, u.dst, v[u.a] ^ v[u.b]);
    case UOp::kShl:
      return Compute(f, u.dst, v[u.a] << (v[u.b] & 63));
    case UOp::kLShr:
      return Compute(f, u.dst, v[u.a] >> (v[u.b] & 63));
    case UOp::kAddImm:
      return Compute(f, u.dst, v[u.a] + static_cast<uint64_t>(u.imm));
    case UOp::kSubImm:
      return Compute(f, u.dst, v[u.a] - static_cast<uint64_t>(u.imm));
    case UOp::kMulImm:
      return Compute(f, u.dst, v[u.a] * static_cast<uint64_t>(u.imm));
    case UOp::kAndImm:
      return Compute(f, u.dst, v[u.a] & static_cast<uint64_t>(u.imm));
    case UOp::kOrImm:
      return Compute(f, u.dst, v[u.a] | static_cast<uint64_t>(u.imm));
    case UOp::kXorImm:
      return Compute(f, u.dst, v[u.a] ^ static_cast<uint64_t>(u.imm));
    case UOp::kShlImm:  // imm pre-masked & 63
      return Compute(f, u.dst, v[u.a] << static_cast<uint64_t>(u.imm));
    case UOp::kLShrImm:
      return Compute(f, u.dst, v[u.a] >> static_cast<uint64_t>(u.imm));
    case UOp::kXorShlImm:
    case UOp::kXorLShrImm: {
      // The shift result t (slot c) is written first, then the xor - two
      // steps and two Alu charges, the reference's accounting for the pair.
      const uint64_t t = kOp == UOp::kXorShlImm ? v[u.a] << static_cast<uint64_t>(u.imm)
                                                : v[u.a] >> static_cast<uint64_t>(u.imm);
      Compute(f, u.c, t);
      return Compute(f, u.dst, v[u.a] ^ t);
    }
    case UOp::kICmp:
      return Compute(f, u.dst,
                     EvalCmp(static_cast<IrCmp>(u.aux), v[u.a], v[u.b]) ? 1 : 0);
    case UOp::kICmpImm:
      return Compute(
          f, u.dst,
          EvalCmp(static_cast<IrCmp>(u.aux), v[u.a], static_cast<uint64_t>(u.imm)) ? 1 : 0);

    case UOp::kCopy:
      v[u.dst] = v[u.a];
      return;
    case UOp::kBoundsCopy:
      return CopyBounds(f, u.dst, u.a);

    case UOp::kAllocaNative:
      StepFlush(f);
      v[u.dst] = f.stack->Alloca(cpu, static_cast<uint32_t>(u.imm));
      return;
    case UOp::kAllocaNativeMpx: {
      StepFlush(f);
      const uint32_t size = static_cast<uint32_t>(u.imm);
      v[u.dst] = f.stack->Alloca(cpu, size);
      return SetBounds(f, u.dst, f.mpx->BndMk(cpu, static_cast<uint32_t>(v[u.dst]), size));
    }
    case UOp::kAllocaSgx: {
      StepFlush(f);
      const uint32_t size = static_cast<uint32_t>(u.imm);
      const uint32_t base = f.stack->Alloca(cpu, size + f.sgx->FooterBytes());
      v[u.dst] = f.sgx->SpecifyBounds(cpu, base, base + size, ObjKind::kStack);
      return;
    }
    case UOp::kAllocaAsan: {
      StepFlush(f);
      const uint32_t size = static_cast<uint32_t>(u.imm);
      const uint32_t rz = f.asan->RedzoneFor(size);
      const uint32_t base = f.stack->Alloca(cpu, size + 2 * rz, 16);
      f.asan->RegisterObject(cpu, base + rz, size, AsanRuntime::kShadowStackRedzone);
      v[u.dst] = base + rz;
      return;
    }
    case UOp::kAllocaScheme:
      StepFlush(f);
      v[u.dst] = f.scheme->IrAlloca(cpu, *f.stack, static_cast<uint32_t>(u.imm));
      return;
    case UOp::kMallocNative:
      StepFlush(f);
      v[u.dst] = f.heap->Alloc(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kMallocNativeMpx: {
      StepFlush(f);
      const uint32_t size = static_cast<uint32_t>(v[u.a]);
      v[u.dst] = f.heap->Alloc(cpu, size);
      return SetBounds(f, u.dst, f.mpx->BndMk(cpu, static_cast<uint32_t>(v[u.dst]), size));
    }
    case UOp::kMallocSgx:
      StepFlush(f);
      v[u.dst] = f.sgx->Malloc(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kMallocAsan:
      StepFlush(f);
      v[u.dst] = f.asan->Malloc(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kMallocScheme:
      StepFlush(f);
      v[u.dst] = f.scheme->IrMalloc(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kFreeNative:
      StepFlush(f);
      f.heap->Free(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kFreeSgx:
      StepFlush(f);
      f.sgx->Free(cpu, v[u.a]);
      return;
    case UOp::kFreeAsan:
      StepFlush(f);
      f.asan->Free(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kFreeScheme:
      StepFlush(f);
      f.scheme->IrFree(cpu, v[u.a]);
      return;

    case UOp::kGep:
    case UOp::kGepMpx:
      Compute(f, u.dst,
              v[u.a] + v[u.b] * static_cast<uint64_t>(u.imm) + static_cast<uint64_t>(u.imm2),
              2);
      if constexpr (kOp == UOp::kGepMpx) {
        CopyBounds(f, u.dst, u.a);
      }
      return;
    case UOp::kMaskPtr:
      return Compute(f, u.dst, (v[u.b] & 0xffffffff00000000ULL) | (v[u.a] & 0xffffffffULL),
                     2);

    case UOp::kLoad:
      StepFlush(f);
      ++f.loads;
      return LoadInto(f, u, v[u.a]);
    case UOp::kStore:
      StepFlush(f);
      ++f.stores;
      return StoreTo(f, u, v[u.a], v[u.b]);

    case UOp::kSgxCheck:
      StepFlush(f);
      ++f.checks;
      f.sgx->CheckAccess(cpu, v[u.a], static_cast<uint32_t>(u.imm), AccessOf(u));
      return;
    case UOp::kSgxCheckRange:
      StepFlush(f);
      ++f.checks;
      f.sgx->CheckRange(cpu, v[u.a], v[u.b]);
      return;
    case UOp::kAsanCheck:
      StepFlush(f);
      ++f.checks;
      f.asan->CheckAccess(cpu, static_cast<uint32_t>(v[u.a]),
                          static_cast<uint32_t>(u.imm), u.flag != 0);
      return;
    case UOp::kMpxCheck:
      StepFlush(f);
      ++f.checks;
      f.mpx->BndCheck(cpu, BoundsOrInit(f, u.a), static_cast<uint32_t>(v[u.a]),
                      static_cast<uint32_t>(u.imm));
      return;
    case UOp::kMpxLdx:
      StepFlush(f);
      return SetBounds(f, u.a,
                       f.mpx->BndLdx(cpu, static_cast<uint32_t>(v[u.b]),
                                     static_cast<uint32_t>(v[u.a])));
    case UOp::kMpxStx:
      StepFlush(f);
      f.mpx->BndStx(cpu, static_cast<uint32_t>(v[u.b]),
                    static_cast<uint32_t>(v[u.a]), BoundsOrInit(f, u.a));
      return;
    case UOp::kSchemeCheck:
      StepFlush(f);
      ++f.checks;
      f.scheme->IrCheck(cpu, v[u.a], static_cast<uint32_t>(u.imm), AccessOf(u));
      return;
    case UOp::kSchemeCheckRange:
      StepFlush(f);
      ++f.checks;
      f.scheme->IrCheckRange(cpu, v[u.a], v[u.b]);
      return;

    case UOp::kGepMaskLoad:
      return GepMaskAccess<QuadCheck::kNone, false>(f, u);
    case UOp::kGepMaskStore:
      return GepMaskAccess<QuadCheck::kNone, true>(f, u);
    case UOp::kGepMaskSgxCheckLoad:
      return GepMaskAccess<QuadCheck::kSgx, false>(f, u);
    case UOp::kGepMaskSgxCheckStore:
      return GepMaskAccess<QuadCheck::kSgx, true>(f, u);
    case UOp::kGepMaskSchemeCheckLoad:
      return GepMaskAccess<QuadCheck::kScheme, false>(f, u);
    case UOp::kGepMaskSchemeCheckStore:
      return GepMaskAccess<QuadCheck::kScheme, true>(f, u);

    case UOp::kCallAbs64: {
      Step(f);
      ++f.pend_call;
      // Unsigned negate: -INT64_MIN is signed-overflow UB; 0 - ux wraps to
      // the same bit pattern the JIT's branch-free abs yields.
      const uint64_t ux = v[u.a];
      v[u.dst] = static_cast<int64_t>(ux) < 0 ? 0 - ux : ux;
      return;
    }
    case UOp::kCallNop:
      Step(f);
      ++f.pend_call;
      if (u.dst != 0) {
        v[u.dst] = 0;
      }
      return;

    case UOp::kBr:
    case UOp::kCondBr:
    case UOp::kCmpBr:
    case UOp::kRet:
    case UOp::kJump:
    case UOp::kCount:
      break;
  }
  FATAL("control-flow micro-op has no shared body");
}

}  // namespace ops
}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EXEC_OPS_H_
