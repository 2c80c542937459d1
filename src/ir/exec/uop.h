// Micro-op program representation shared by the threaded and JIT IR engines.
//
// An IrFunction is lowered once (see decoder.cc) into a flat array of
// fixed-size MicroOps:
//
//   * operands are register-slot indices into one contiguous value array
//     (SSA id-indexed, plus decoder-allocated temporaries for phi cycles);
//   * branch targets are micro-op offsets - no block lookup, no phi scan;
//   * phi nodes are compiled away into parallel-copy stubs materialized on
//     each control-flow edge (kCopy/kBoundsCopy sequences);
//   * runtime symbol dispatch ("sgx"/"asan"/builtin call names) is resolved
//     at decode time into distinct opcodes;
//   * the patterns the instrumentation passes emit are fused into
//     superinstructions (gep+maskptr[+check]+load/store, icmp+condbr,
//     xorshift pairs, const-operand ALU forms).
//
// The decoded program preserves the reference interpreter's observable
// behaviour exactly: same step accounting (phi copies are free, fused ops
// count one step per fused instruction, checked against max_steps at each),
// same Cpu charges in the same order, same memory-access sequence, same
// traps. Only host-side dispatch cost changes.
//
// Two engines run this form: the direct-threaded loop (engine.cc) and the
// template JIT (jit/). Every op that is not control flow has exactly one
// C++ body, ExecOp in ops.h, which both call; only control flow (br,
// condbr, cmpbr, ret, jump) is implemented per engine.

#ifndef SGXBOUNDS_SRC_IR_EXEC_UOP_H_
#define SGXBOUNDS_SRC_IR_EXEC_UOP_H_

#include <cstdint>
#include <vector>

#include "src/ir/ir.h"

namespace sgxb {

// The micro-op list, in enum order. Each entry is BODY(name, text) or
// CTRL(name, text): BODY ops have one shared body in ops.h that both the
// threaded engine and the JIT thunks execute; CTRL ops move the pc and are
// implemented by each engine. The list generates the UOp enum, UOpName, the
// threaded engine's label table and cases, and the JIT's thunk table.
//
// Operand encodings:
//   values          const: dst, imm; arg: dst, imm = argument index
//                   (reference semantics: OOB/negative -> 0)
//   ALU             slot forms: dst, a, b; Imm forms: dst, a, imm = folded
//                   constant (shift amounts pre-masked & 63)
//   xorshift pair   t = shl/lshr x, const ; d = xor x, t - one dispatch, two
//                   simulated instructions (two steps, two Alu charges, and
//                   the intermediate t is still written): dst = d, a = x,
//                   c = t, imm = pre-masked shift amount
//   compare         dst, a, b (or imm), aux = IrCmp
//   control         br: imm = target; condbr: a = cond, imm/imm2 = true/false
//                   targets; cmpbr (fused icmp+condbr): dst = cmp result, a,
//                   b, aux = IrCmp, imm/imm2 = targets; ret: a = value,
//                   flag = has-value (flag 0 returns 0); jump: imm = target,
//                   free stub-internal jump (no step, no charge)
//   phi edges       copy: dst <- a (value); bcopy: dst <- a (MPX bounds,
//                   sequential reference order) - free, like the
//                   reference's phi phase
//   allocation      alloca*: dst, imm = byte size; malloc*: dst, a = size
//                   slot; free*: a = ptr slot; *Mpx forms also make a BndMk
//                   side-table entry (MPX tracking decode)
//   address         gep: dst, a = base, b = index, imm = scale, imm2 =
//                   offset (gep.mpx propagates bounds from base); maskptr:
//                   dst, a = ptr-after-arith, b = ptr-before
//   memory          type = access type, aux = byte size; load: dst, a = ptr;
//                   store: a = value, b = ptr
//   checks          a = ptr, imm = access size, flag = is-write; range
//                   forms: a = ptr, b = extent slot; mpxldx/mpxstx: a =
//                   loaded/stored-ptr slot, b = slot-ptr slot
//   calls           call.abs64: dst, a; call.nop: dst (0 = no result)
//   gep+mask quads  the shape the SGXBounds and registry-scheme passes emit:
//                   the gep result is re-tagged through a maskptr, so the
//                   lowered access is
//                     t = gep base, idx ; p = maskptr t, base ; [check p] ;
//                     load/store p
//                   (the check is absent when hoisted or elided). a = base,
//                   b = index, c = t slot, imm2 = p slot, dst = load result
//                   / store value slot, aux = access size, flag = is-write,
//                   imm packs (scale << 32) | offset - both verified to fit
//                   32 bits at decode.
#define SGXB_UOP_LIST(BODY, CTRL)                                 \
  BODY(kConst, "const")                                           \
  BODY(kArg, "arg")                                               \
  BODY(kAdd, "add")                                               \
  BODY(kSub, "sub")                                               \
  BODY(kMul, "mul")                                               \
  BODY(kUDiv, "udiv")                                             \
  BODY(kURem, "urem")                                             \
  BODY(kAnd, "and")                                               \
  BODY(kOr, "or")                                                 \
  BODY(kXor, "xor")                                               \
  BODY(kShl, "shl")                                               \
  BODY(kLShr, "lshr")                                             \
  BODY(kAddImm, "add.i")                                          \
  BODY(kSubImm, "sub.i")                                          \
  BODY(kMulImm, "mul.i")                                          \
  BODY(kAndImm, "and.i")                                          \
  BODY(kOrImm, "or.i")                                            \
  BODY(kXorImm, "xor.i")                                          \
  BODY(kShlImm, "shl.i")                                          \
  BODY(kLShrImm, "lshr.i")                                        \
  BODY(kXorShlImm, "xor+shl.i")                                   \
  BODY(kXorLShrImm, "xor+lshr.i")                                 \
  BODY(kICmp, "icmp")                                             \
  BODY(kICmpImm, "icmp.i")                                        \
  CTRL(kBr, "br")                                                 \
  CTRL(kCondBr, "condbr")                                         \
  CTRL(kCmpBr, "cmpbr")                                           \
  CTRL(kRet, "ret")                                               \
  BODY(kCopy, "copy")                                             \
  BODY(kBoundsCopy, "bcopy")                                      \
  CTRL(kJump, "jump")                                             \
  BODY(kAllocaNative, "alloca")                                   \
  BODY(kAllocaNativeMpx, "alloca.mpx")                            \
  BODY(kAllocaSgx, "alloca.sgx")                                  \
  BODY(kAllocaAsan, "alloca.asan")                                \
  BODY(kMallocNative, "malloc")                                   \
  BODY(kMallocNativeMpx, "malloc.mpx")                            \
  BODY(kMallocSgx, "malloc.sgx")                                  \
  BODY(kMallocAsan, "malloc.asan")                                \
  BODY(kFreeNative, "free")                                       \
  BODY(kFreeSgx, "free.sgx")                                      \
  BODY(kFreeAsan, "free.asan")                                    \
  BODY(kGep, "gep")                                               \
  BODY(kGepMpx, "gep.mpx")                                        \
  BODY(kMaskPtr, "maskptr")                                       \
  BODY(kLoad, "load")                                             \
  BODY(kStore, "store")                                           \
  BODY(kSgxCheck, "sgxcheck")                                     \
  BODY(kSgxCheckRange, "sgxcheck.range")                          \
  BODY(kAsanCheck, "asancheck")                                   \
  BODY(kMpxCheck, "mpxcheck")                                     \
  BODY(kMpxLdx, "mpxldx")                                         \
  BODY(kMpxStx, "mpxstx")                                         \
  BODY(kGepMaskLoad, "gep+mask+load")                             \
  BODY(kGepMaskStore, "gep+mask+store")                           \
  BODY(kGepMaskSgxCheckLoad, "gep+mask+check+load")               \
  BODY(kGepMaskSgxCheckStore, "gep+mask+check+store")             \
  BODY(kCallAbs64, "call.abs64")                                  \
  BODY(kCallNop, "call.nop")                                      \
  BODY(kAllocaScheme, "alloca.scheme")                            \
  BODY(kMallocScheme, "malloc.scheme")                            \
  BODY(kFreeScheme, "free.scheme")                                \
  BODY(kSchemeCheck, "schemecheck")                               \
  BODY(kSchemeCheckRange, "schemecheck.range")                    \
  BODY(kGepMaskSchemeCheckLoad, "gep+mask+scheck+load")           \
  BODY(kGepMaskSchemeCheckStore, "gep+mask+scheck+store")

#define SGXB_UOP_ENUMERATOR(name, text) name,
enum class UOp : uint8_t {
  SGXB_UOP_LIST(SGXB_UOP_ENUMERATOR, SGXB_UOP_ENUMERATOR)
  kCount
};
#undef SGXB_UOP_ENUMERATOR

const char* UOpName(UOp op);

struct MicroOp {
  UOp op = UOp::kCallNop;
  IrType type = IrType::kI64;
  uint8_t aux = 0;   // access byte size / IrCmp predicate
  uint8_t flag = 0;  // is-write for checks
  uint32_t dst = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;    // fused gep result slot
  int64_t imm = 0;
  int64_t imm2 = 0;
};

struct DecodeOptions {
  // Track the MPX side table alongside values (required when an MpxRuntime
  // is attached: phi/gep/alloca/malloc propagate bounds in the reference).
  bool track_mpx = false;
  // Enable superinstruction fusion (disabled automatically for the SGX
  // access patterns when track_mpx is set: the fused forms do not propagate
  // bounds through the gep).
  bool fuse = true;
};

// The decoded, directly executable form of one IrFunction.
struct DecodedFunction {
  std::vector<MicroOp> code;
  uint32_t num_slots = 0;  // fn.num_values + phi-cycle temporaries
  uint32_t entry = 0;      // offset of the first executed micro-op
  bool track_mpx = false;
  // Decoder statistics (asserted by tests, printed by benches).
  uint32_t fused_superinstructions = 0;
  uint32_t edge_stubs = 0;
  uint32_t phi_cycle_temps = 0;

  size_t CountUOp(UOp op) const {
    size_t n = 0;
    for (const MicroOp& u : code) {
      n += u.op == op ? 1 : 0;
    }
    return n;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EXEC_UOP_H_
