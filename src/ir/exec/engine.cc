// The two engines that run decoded micro-op programs: the direct-threaded
// loop (RunDecoded) and the wrapper around JIT-compiled code (RunJit). Both
// run on one JitFrame, opened and closed the same way.
//
// Threaded dispatch is a computed goto on GCC/Clang (one indirect jump per
// micro-op, no bounds check, no loop); define SGXB_IR_FORCE_SWITCH to fall
// back to a portable for(;;)+switch loop with identical semantics. Every
// non-control op runs its shared body from ops.h (the JIT's thunks run the
// same bodies); only control flow is implemented here. Every simulated
// effect - step accounting, Cpu charges, memory traffic, runtime calls,
// traps - replicates the reference interpreter bit-for-bit; see uop.h.

#include <exception>

#include "src/common/check.h"
#include "src/ir/eval.h"
#include "src/ir/exec/jit/jit_cache.h"
#include "src/ir/exec/jit/jit_frame.h"
#include "src/ir/exec/ops.h"
#include "src/ir/exec/uop.h"
#include "src/ir/interp.h"

#if defined(__GNUC__) && !defined(SGXB_IR_FORCE_SWITCH)
#define SGXB_IR_COMPUTED_GOTO 1
#else
#define SGXB_IR_COMPUTED_GOTO 0
#endif

namespace sgxb {

// Forced inline: RunDecoded's frame must never have its address taken.
SGXB_OP_INLINE JitFrame Interpreter::OpenFrame(uint32_t num_slots, bool track_mpx,
                                               Cpu& cpu, const std::vector<uint64_t>& args,
                                               uint64_t max_steps) {
  values_.assign(num_slots, 0);
  if (track_mpx) {
    CHECK(mpx_ != nullptr);
    mpx_bounds_.assign(num_slots, MpxBounds{});
    mpx_valid_.assign(num_slots, 0);
  }
  JitFrame f;
  f.v = values_.data();
  f.steps = stats_.steps;
  f.max_steps = max_steps;
  f.loads = stats_.loads;
  f.stores = stats_.stores;
  f.checks = stats_.checks;
  f.args = args.data();
  f.nargs = args.size();
  f.cpu = &cpu;
  f.enclave = enclave_;
  f.heap = heap_;
  f.stack = stack_;
  f.sgx = sgx_;
  f.asan = asan_;
  f.mpx = mpx_;
  f.scheme = scheme_;
  f.mpx_bounds = track_mpx ? mpx_bounds_.data() : nullptr;
  f.mpx_valid = track_mpx ? mpx_valid_.data() : nullptr;
  return f;
}

// Every exit restores the interpreter invariants in the same order: flush
// what is still pending, write the counters back (so mid-trap observations
// match the reference exactly), pop the stack frame.
SGXB_OP_INLINE void Interpreter::CloseFrame(JitFrame& f, uint32_t stack_frame) {
  ops::FlushPending(f);
  stats_.steps = f.steps;
  stats_.loads = f.loads;
  stats_.stores = f.stores;
  stats_.checks = f.checks;
  stack_->PopFrame(stack_frame);
}

uint64_t Interpreter::RunDecoded(const DecodedFunction& df, Cpu& cpu,
                                 const std::vector<uint64_t>& args, uint64_t max_steps) {
  // The frame is a local whose address never escapes (every op body is
  // forced inline), so the compiler keeps its hot fields in registers.
  JitFrame f = OpenFrame(df.num_slots, df.track_mpx, cpu, args, max_steps);
  const uint32_t frame = stack_->PushFrame();
  uint64_t* const v = f.v;
  const MicroOp* const code = df.code.data();
  const MicroOp* pc = code + df.entry;

  try {
#if SGXB_IR_COMPUTED_GOTO
#define SGXB_UOP_LABEL(name, text) &&L_##name,
    static const void* const kLabels[] = {SGXB_UOP_LIST(SGXB_UOP_LABEL, SGXB_UOP_LABEL)};
#undef SGXB_UOP_LABEL
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<size_t>(UOp::kCount),
                  "label table out of sync with UOp");
#define VMCASE(name) L_##name:
#define VMNEXT()                                        \
  do {                                                  \
    ++pc;                                               \
    goto* kLabels[static_cast<uint8_t>(pc->op)];        \
  } while (0)
#define VMJUMP(target)                                  \
  do {                                                  \
    pc = code + (target);                               \
    goto* kLabels[static_cast<uint8_t>(pc->op)];        \
  } while (0)
    goto* kLabels[static_cast<uint8_t>(pc->op)];
#else
#define VMCASE(name) case UOp::name:
#define VMNEXT()                                        \
  {                                                     \
    ++pc;                                               \
    break;                                              \
  }
#define VMJUMP(target)                                  \
  {                                                     \
    pc = code + (target);                               \
    break;                                              \
  }
    for (;;) {
      switch (pc->op) {
#endif

#define SGXB_UOP_BODY_CASE(name, text) \
  VMCASE(name) { ops::ExecOp<UOp::name>(f, *pc); }  \
  VMNEXT();
#define SGXB_UOP_NO_CASE(name, text)
    SGXB_UOP_LIST(SGXB_UOP_BODY_CASE, SGXB_UOP_NO_CASE)
#undef SGXB_UOP_BODY_CASE
#undef SGXB_UOP_NO_CASE

    VMCASE(kBr) {
      ops::Step(f);
      ++f.pend_branch;
      VMJUMP(pc->imm);
    }
    VMCASE(kCondBr) {
      ops::Step(f);
      ++f.pend_branch;
      VMJUMP(v[pc->a] != 0 ? pc->imm : pc->imm2);
    }
    VMCASE(kCmpBr) {
      // Fused icmp (step, Alu, write) + condbr (step, Branch, jump): the
      // step-limit check fires between the components exactly as the
      // reference does between the two instructions.
      const bool taken = EvalCmp(static_cast<IrCmp>(pc->aux), v[pc->a], v[pc->b]);
      ops::Compute(f, pc->dst, taken ? 1 : 0);
      ops::Step(f);
      ++f.pend_branch;
      VMJUMP(taken ? pc->imm : pc->imm2);
    }
    VMCASE(kRet) {
      ops::Step(f);
      f.ret = pc->flag != 0 ? v[pc->a] : 0;
      CloseFrame(f, frame);
      return f.ret;
    }
    VMCASE(kJump) { VMJUMP(pc->imm); }

#if !SGXB_IR_COMPUTED_GOTO
        case UOp::kCount:
          FATAL("invalid micro-op");
      }
    }
#endif
#undef VMCASE
#undef VMNEXT
#undef VMJUMP
  } catch (...) {
    CloseFrame(f, frame);
    throw;
  }
  FATAL("decoded program fell off the end");
}

// Native execution: generated code never unwinds, so a trapping op body
// parks its exception in the frame and the program returns kJitStatusBail;
// the three exits mirror RunDecoded's (return, rethrow, step-limit trap).
uint64_t Interpreter::RunJit(const jit::JitProgram& jp, Cpu& cpu,
                             const std::vector<uint64_t>& args, uint64_t max_steps) {
  JitFrame f = OpenFrame(jp.num_slots, jp.track_mpx, cpu, args, max_steps);
  const uint32_t frame = stack_->PushFrame();
  std::exception_ptr pending_exception;
  f.code = jp.code.data();
  f.ex_slot = &pending_exception;

  jp.entry(&f);
  CloseFrame(f, frame);

  switch (f.status) {
    case kJitStatusOk:
      return f.ret;
    case kJitStatusBail:
      CHECK(pending_exception != nullptr);
      std::rethrow_exception(pending_exception);
    case kJitStatusStepLimit:
      ops::ThrowStepLimit();
  }
  FATAL("JIT program returned an unknown status");
}

}  // namespace sgxb
