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
// the slot array, the hot counters, and the attached host objects. Every
// scheme (SGXBounds, ASan, l4ptr, shadow) runs through the same *Scheme ops
// and WithScheme; only MPX keeps dedicated ops, for its side table.

#ifndef SGXBOUNDS_SRC_IR_EXEC_OPS_H_
#define SGXBOUNDS_SRC_IR_EXEC_OPS_H_

#include <cstdint>
#include <cstring>

#include "src/asan/asan_runtime.h"
#include "src/common/check.h"
#include "src/common/units.h"
#include "src/enclave/enclave.h"
#include "src/ir/eval.h"
#include "src/ir/exec/uop.h"
#include "src/ir/scheme_rt.h"
#include "src/mpx/mpx_runtime.h"
#include "src/runtime/heap.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/bounds_runtime.h"
#include "src/sim/perf_counters.h"

// The threaded engine keeps its frame in registers only if no body takes the
// frame's address out of line, so every helper here is forced inline.
#if defined(__GNUC__)
#define SGXB_OP_INLINE inline __attribute__((always_inline))
#define SGXB_OP_LAMBDA __attribute__((always_inline))
#else
#define SGXB_OP_INLINE inline
#define SGXB_OP_LAMBDA
#endif

namespace sgxb {
namespace ops {

[[noreturn]] inline void ThrowStepLimit() {
  throw SimTrap(TrapKind::kIllegalInstruction, 0, "interpreter step limit exceeded");
}

// Pure compute events (Alu/Branch) are commutative counts that
// nothing observes between two observable points (memory access, runtime
// call, trap, return), so they accumulate in the frame and flush just before
// each observable. Every cycle stamp the simulation can record is therefore
// identical to the reference interpreter's, which charges per instruction.
template <class Frame>
SGXB_OP_INLINE void FlushPending(Frame& f) {
  Cpu& cpu = *f.cpu;
  cpu.Alu(f.pend_alu);
  cpu.Branch(f.pend_branch);
  f.pend_alu = 0;
  f.pend_branch = 0;
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

// --- Guest loads and stores: guard, then commit ----------------------------
//
// The one definition of the inline access path. JIT tier 2 emits the same
// guard and commit in generated code (jit/compiler.cc, EmitGuestGuard and
// EmitGuestAccess) and mirrors this C++; the threaded engine runs it as
// written. The guard reads the frame's guest-access fields (OpenFrame fills
// them from Enclave::InlineAccessFor) and changes nothing. It admits an
// access when the frame allows inline access (no trace recorder, no fault
// hooks), the access lies in one cache line (so in one page), that page is
// addressable, and the line is on way 0 or 1 of its L1 set. In exactly that
// case Enclave::LoadBytes/StoreBytes count one app access and one L1 access,
// promote a way-1 line to way 0 (Cache::Access), move the bytes, and do
// nothing else; the commit does that. Every other access takes
// LoadBytes/StoreBytes, out of line, which also raise every trap.

// The L1 set of the access of `bytes` bytes at `addr` if the guard admits
// it, else null.
template <class Frame>
SGXB_OP_INLINE uint32_t* GuestAccessSet(const Frame& f, uint32_t addr, uint32_t bytes) {
  // One line: an access wrapping past 4 GiB sets bit 32 of `last` and fails.
  const uint64_t last = uint64_t{addr} + bytes - 1;
  if (f.inline_mem == 0 || ((last ^ addr) >> kCacheLineShift) != 0 ||
      f.addressable[addr >> kPageShift] == 0) {
    return nullptr;
  }
  const uint32_t line = addr >> kCacheLineShift;
  uint32_t* const set = f.l1_sets + (line & f.l1_set_mask) * f.l1_ways;
  return set[0] == line || set[1] == line ? set : nullptr;
}

// Cpu::MemAccess's and Cache::Access's effects for an admitted access.
template <bool kStore, class Frame>
SGXB_OP_INLINE void CommitGuestAccess(Frame& f, uint32_t* set, uint32_t addr) {
  PerfCounters& ev = *f.events;
  ++(kStore ? ev.stores : ev.loads);
  ++ev.l1_accesses;
  const uint32_t line = addr >> kCacheLineShift;
  if (set[0] != line) {
    set[1] = set[0];
    set[0] = line;
  }
}

// The bail paths, out of line, for every access the guard turns away: a
// line deeper than way 1 or not in L1, a line or page crossing, a trap, a
// recorder or hooks attached.
[[gnu::noinline]] inline uint64_t LoadGuestBytes(Enclave& enclave, Cpu& cpu, uint32_t addr,
                                                 uint32_t bytes) {
  uint64_t raw = 0;
  enclave.LoadBytes(cpu, addr, &raw, bytes);
  return raw;
}
[[gnu::noinline]] inline void StoreGuestBytes(Enclave& enclave, Cpu& cpu, uint32_t addr,
                                              uint64_t raw, uint32_t bytes) {
  enclave.StoreBytes(cpu, addr, &raw, bytes);
}

// Guest bytes at `host`, moved as one (possibly unaligned) scalar.
template <typename T>
SGXB_OP_INLINE uint64_t HostRead(const uint8_t* host) {
  T x;
  std::memcpy(&x, host, sizeof(T));
  return x;
}
template <typename T>
SGXB_OP_INLINE void HostWrite(uint8_t* host, uint64_t raw) {
  const T x = static_cast<T>(raw);
  std::memcpy(host, &x, sizeof(T));
}

// The decoder gives every access a width of 1, 2, 4 or 8 bytes, its type's
// size, so the commit's move is TruncateToType as well; any other width
// takes the bail path.
template <class Frame>
SGXB_OP_INLINE void LoadInto(Frame& f, const MicroOp& u, uint64_t ptr) {
  const uint32_t addr = static_cast<uint32_t>(ptr);
  uint32_t* const set = GuestAccessSet(f, addr, u.aux);
  const uint8_t* const host = f.host_base + addr;
  uint64_t raw;
  switch (set != nullptr ? u.aux : 0) {
    case 1:
      raw = HostRead<uint8_t>(host);
      break;
    case 2:
      raw = HostRead<uint16_t>(host);
      break;
    case 4:
      raw = HostRead<uint32_t>(host);
      break;
    case 8:
      raw = HostRead<uint64_t>(host);
      break;
    default:
      f.v[u.dst] = TruncateToType(u.type, LoadGuestBytes(*f.enclave, *f.cpu, addr, u.aux));
      return;
  }
  CommitGuestAccess<false>(f, set, addr);
  f.v[u.dst] = raw;
}

template <class Frame>
SGXB_OP_INLINE void StoreTo(Frame& f, const MicroOp& u, uint64_t value, uint64_t ptr) {
  const uint32_t addr = static_cast<uint32_t>(ptr);
  uint32_t* const set = GuestAccessSet(f, addr, u.aux);
  uint8_t* const host = f.host_base + addr;
  switch (set != nullptr ? u.aux : 0) {
    case 1:
      HostWrite<uint8_t>(host, value);
      break;
    case 2:
      HostWrite<uint16_t>(host, value);
      break;
    case 4:
      HostWrite<uint32_t>(host, value);
      break;
    case 8:
      HostWrite<uint64_t>(host, value);
      break;
    default:
      return StoreGuestBytes(*f.enclave, *f.cpu, addr, TruncateToType(u.type, value), u.aux);
  }
  CommitGuestAccess<true>(f, set, addr);
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

// Calls fn(rt) on the attached scheme runtime. The two built-in runtimes
// are `final`, so the cast makes every hook a direct, inlinable call; any
// other scheme (l4ptr, shadow) is called through the vtable.
template <class Frame, class Fn>
SGXB_OP_INLINE void WithScheme(Frame& f, Fn&& fn) {
  switch (f.scheme_kind) {
    case IrSchemeKind::kSgxBounds:
      return fn(*static_cast<SgxBoundsRuntime*>(f.scheme));
    case IrSchemeKind::kAsan:
      return fn(*static_cast<AsanRuntime*>(f.scheme));
    case IrSchemeKind::kOther:
      break;
  }
  return fn(*f.scheme);
}

// gep + maskptr [+ check] + access quads: components step and charge in
// reference order; the gep result t and the re-tagged pointer p are both
// written back before the access, so a store of either value (or a mid-quad
// trap) observes exactly the reference's state.
template <bool kCheck, bool kStore, class Frame>
SGXB_OP_INLINE void GepMaskAccess(Frame& f, const MicroOp& u) {
  uint64_t* const v = f.v;
  const uint64_t packed = static_cast<uint64_t>(u.imm);
  const uint64_t t = v[u.a] + v[u.b] * (packed >> 32) + (packed & 0xffffffffULL);
  Compute(f, u.c, t, 2);
  const uint64_t p = (v[u.a] & 0xffffffff00000000ULL) | (t & 0xffffffffULL);
  Compute(f, static_cast<uint32_t>(u.imm2), p, 2);
  Step(f);
  if constexpr (kCheck) {
    ++f.checks;
    FlushPending(f);
    WithScheme(f, [&](auto& rt) SGXB_OP_LAMBDA { rt.IrCheck(*f.cpu, p, u.aux, AccessOf(u)); });
    Step(f);
  }
  if constexpr (kStore) {
    ++f.stores;
  } else {
    ++f.loads;
  }
  if constexpr (!kCheck) {
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
    case UOp::kAllocaScheme:
      StepFlush(f);
      return WithScheme(f, [&](auto& rt) SGXB_OP_LAMBDA {
        v[u.dst] = rt.IrAlloca(cpu, *f.stack, static_cast<uint32_t>(u.imm));
      });
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
    case UOp::kMallocScheme:
      StepFlush(f);
      return WithScheme(f, [&](auto& rt) SGXB_OP_LAMBDA {
        v[u.dst] = rt.IrMalloc(cpu, static_cast<uint32_t>(v[u.a]));
      });
    case UOp::kFreeNative:
      StepFlush(f);
      f.heap->Free(cpu, static_cast<uint32_t>(v[u.a]));
      return;
    case UOp::kFreeScheme:
      StepFlush(f);
      return WithScheme(f, [&](auto& rt) SGXB_OP_LAMBDA { rt.IrFree(cpu, v[u.a]); });

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
      return WithScheme(f, [&](auto& rt) SGXB_OP_LAMBDA {
        rt.IrCheck(cpu, v[u.a], static_cast<uint32_t>(u.imm), AccessOf(u));
      });
    case UOp::kSchemeCheckRange:
      StepFlush(f);
      ++f.checks;
      return WithScheme(f, [&](auto& rt) SGXB_OP_LAMBDA {
        rt.IrCheckRange(cpu, v[u.a], v[u.b]);
      });

    case UOp::kGepMaskLoad:
      return GepMaskAccess<false, false>(f, u);
    case UOp::kGepMaskStore:
      return GepMaskAccess<false, true>(f, u);
    case UOp::kGepMaskSchemeCheckLoad:
      return GepMaskAccess<true, false>(f, u);
    case UOp::kGepMaskSchemeCheckStore:
      return GepMaskAccess<true, true>(f, u);

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
