// The JIT's slow-path thunks: one per non-control micro-op, each running
// that op's shared body (ExecOp in exec/ops.h - the same body the threaded
// engine runs), so the JIT can never drift from the interpreters on anything
// a simulation observes. Generated code calls them for every observable op
// without an inline template (the other checks, allocation, MPX table
// walks, scheme hooks, checked access quads), for every load, store, MPX
// check and ASan check its inline guard turns away, and for every op under
// SGXB_IR_JIT_HELPER_ONLY.
//
// Also the exception firewall: generated code has no unwind tables, so a
// SimTrap (or anything else) thrown by a runtime must not propagate through
// the JIT frame. Each thunk catches everything, parks the exception in the
// wrapper-owned std::exception_ptr behind JitFrame::ex_slot, and returns
// kJitBail; Interpreter::RunJit rethrows after restoring the interpreter
// invariants.

#include <exception>

#include "src/common/check.h"
#include "src/ir/exec/jit/jit_frame.h"
#include "src/ir/exec/ops.h"
#include "src/ir/exec/uop.h"

namespace sgxb {

namespace {

template <UOp kOp>
uint64_t SlowOpThunk(JitFrame* frame, uint64_t index) noexcept {
  try {
    ops::ExecOp<kOp>(*frame, frame->code[index]);
    return kJitContinue;
  } catch (...) {
    *static_cast<std::exception_ptr*>(frame->ex_slot) = std::current_exception();
    return kJitBail;
  }
}

// Indexed by UOp; control flow is always inlined by the compiler, so its
// entries are null.
#define SGXB_UOP_THUNK(name, text) &SlowOpThunk<UOp::name>,
#define SGXB_UOP_NO_THUNK(name, text) nullptr,
constexpr SgxbJitSlowFn kSlowOpTable[] = {
    SGXB_UOP_LIST(SGXB_UOP_THUNK, SGXB_UOP_NO_THUNK)};
#undef SGXB_UOP_THUNK
#undef SGXB_UOP_NO_THUNK
static_assert(sizeof(kSlowOpTable) / sizeof(kSlowOpTable[0]) ==
                  static_cast<size_t>(UOp::kCount),
              "thunk table out of sync with UOp");

}  // namespace

SgxbJitSlowFn SgxbJitSlowFnFor(uint16_t op) {
  CHECK(op < static_cast<uint16_t>(UOp::kCount));
  CHECK(kSlowOpTable[op] != nullptr);
  return kSlowOpTable[op];
}

}  // namespace sgxb
