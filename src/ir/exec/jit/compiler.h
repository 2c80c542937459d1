// Template compilation of decoded micro-op streams to x86-64.
//
// Each MicroOp is stamped out from a hand-written code template (pure
// compute and control flow inline; everything observable - memory traffic,
// runtime calls, checks, allocation - calls that op's thunk, which runs the
// shared C++ body from exec/ops.h). Branch targets are recorded during emission and fixed up
// in a second pass once every op's native offset is known. See jit_frame.h
// for the frame ABI and compiler.cc for the per-op templates.

#ifndef SGXBOUNDS_SRC_IR_EXEC_JIT_COMPILER_H_
#define SGXBOUNDS_SRC_IR_EXEC_JIT_COMPILER_H_

#include <cstdint>
#include <vector>

#include "src/ir/exec/jit/code_buffer.h"
#include "src/ir/exec/jit/jit_frame.h"
#include "src/ir/exec/uop.h"

namespace sgxb {
namespace jit {

struct JitProgram {
  using EntryFn = void (*)(JitFrame*);

  // Private copy of the micro-op stream: generated code embeds op indices
  // for the slow-path thunk, and slow ops read their operands from here. The
  // copy pins the lifetime to the program (a DecodeCache entry could in
  // principle be evicted independently).
  std::vector<MicroOp> code;
  uint32_t num_slots = 0;
  bool track_mpx = false;

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
