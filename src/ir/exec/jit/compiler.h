// Template compilation of decoded micro-op streams to x86-64.
//
// Each MicroOp is stamped out from a hand-written code template (pure
// compute, control flow, the MPX side-table copies, loads and stores that
// hit an addressable line on L1 way 0 or 1, and MPX and ASan checks that
// pass on their fast path inline; everything else observable - runtime
// calls, the other checks, allocation, the rest of memory traffic - calls
// that op's thunk, which runs the shared C++ body from exec/ops.h). Branch
// targets are recorded during emission and fixed up in a second pass once
// every op's native offset is known. See jit_frame.h
// for the frame ABI and compiler.cc for the per-op templates.

#ifndef SGXBOUNDS_SRC_IR_EXEC_JIT_COMPILER_H_
#define SGXBOUNDS_SRC_IR_EXEC_JIT_COMPILER_H_

#include <cstdint>

#include "src/ir/exec/jit/code_buffer.h"
#include "src/ir/exec/jit/jit_frame.h"
#include "src/ir/exec/uop.h"

namespace sgxb {
namespace jit {

struct JitProgram {
  using EntryFn = void (*)(JitFrame*);

  // Generated code embeds micro-op indices for the slow-path thunks, which
  // read their operands from the DecodedFunction the program was compiled
  // from (JitFrame::code): run the program with that function's code.
  ExecCodeBuffer buffer;
  EntryFn entry = nullptr;
  // Compile statistics, surfaced through --selftime.
  size_t native_bytes = 0;
  uint32_t inline_ops = 0;
  uint32_t helper_ops = 0;

  bool ok() const { return entry != nullptr; }
};

// Lowers `df` to native code. A program with ok()==false means executable
// memory was unavailable; the caller falls back to the threaded engine.
//
// Env knob SGXB_IR_JIT_HELPER_ONLY: route every non-control op through the
// slow-path thunk instead of its inline template - a degenerate but
// semantically complete compilation mode used by tests to cross-check the
// thunk implementations against the inline templates.
JitProgram CompileDecodedFunction(const DecodedFunction& df);

}  // namespace jit
}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EXEC_JIT_COMPILER_H_
