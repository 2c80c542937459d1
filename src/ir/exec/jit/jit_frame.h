// The calling convention between Interpreter::RunJit and JIT-compiled code.
//
// Compiled code receives one argument: a JitFrame*. The frame is plain data
// (standard layout - the compiler bakes offsetof() constants into generated
// instructions), holding the slot array, the decoded micro-op stream (for
// helper bail-outs), the hot counters, and every host object the slow paths
// need.
//
// Register pinning inside generated code (all callee-saved, so they survive
// SysV helper calls untouched):
//
//   rbx  JitFrame*
//   r12  slot array base (frame->v)
//   r13  steps
//   r14  pend_alu
//   rbp  pend_branch
//   r15  max_steps
//
// The loads/stores/checks counters live in frame memory (cold).
//
// Tier 2: loads, stores and the unchecked gep+maskptr access quads are
// inline. They read the guest-access fields at the end of the frame
// (inline_mem, addressable, host_base, l1_sets/l1_set_mask/l1_ways,
// events), which OpenFrame fills from Enclave::InlineAccessFor, test that
// the access is addressable, in one cache line and on way 0 or 1 of its L1
// set, and otherwise call the op's thunk as below (compiler.cc, DESIGN §12).
// That guard and its commit are defined once, in C++, by ops::GuestAccessSet
// and ops::CommitGuestAccess (exec/ops.h): the threaded engine runs them on
// its own frame, and the templates mirror them.
//
// Tier 3: MPX's kMpxCheck and ASan's kSchemeCheck are inline too, in the
// same guard-then-commit shape. The MPX guard reads the pointer's bounds
// from the side table and tests the access against them; the ASan guard
// finds the shadow byte from asan_shadow_base and makes the tier-2 tests on
// its line, then tests the byte and the granule. Their commits count the
// check through mpx_checks / asan_checks, the runtimes' own counters. A
// failed test calls the op's thunk, which counts a violation and traps
// exactly as the shared body does.
//
// Helper protocol: every op that is not emitted as an inline template, and
// every inline access whose guard fails, calls
// its own per-opcode thunk (SgxbJitSlowFnFor(op), jit/runtime.cc)
//   uint64_t thunk(JitFrame*, uint64_t op_index)
// with steps/pend_alu/pend_branch spilled to the frame first. The thunk runs
// the op's shared C++ body (ExecOp in exec/ops.h, the same body the threaded
// engine runs), mutating frame fields, and returns kJitContinue or kJitBail.
// C++ exceptions never unwind through the JIT frame (it has no unwind info):
// the thunk catches everything, stashes the std::exception_ptr through
// ex_slot, and bails; the RunJit wrapper rethrows after restoring the
// interpreter's invariants (flush, stats write-back, frame pop) - exactly the
// threaded engine's catch(...) path. Control flow is never delegated:
// branches are always inlined, so a thunk's answer is only "keep going" or
// "stop".
//
// The threaded engine runs on a JitFrame too (a register-resident local), so
// the shared op bodies see one frame type.

#ifndef SGXBOUNDS_SRC_IR_EXEC_JIT_JIT_FRAME_H_
#define SGXBOUNDS_SRC_IR_EXEC_JIT_JIT_FRAME_H_

#include <cstdint>

namespace sgxb {

class Cpu;
class Enclave;
struct PerfCounters;
class Heap;
class StackAllocator;
class MpxRuntime;
class IrSchemeRuntime;
enum class IrSchemeKind : uint8_t;
struct MpxBounds;
struct MicroOp;

// Values of JitFrame::status when compiled code returns.
enum : uint64_t {
  kJitStatusOk = 0,         // kRet executed; result in frame->ret
  kJitStatusBail = 1,       // helper stashed an exception through ex_slot
  kJitStatusStepLimit = 2,  // inline step check tripped (max_steps exceeded)
};

// Slow-path thunk return values.
enum : uint64_t {
  kJitContinue = 0,
  kJitBail = 1,
};

struct JitFrame {
  // Hot state mirrored into pinned registers by the prologue.
  uint64_t* v = nullptr;         // slot array (num_slots entries)
  uint64_t steps = 0;
  uint64_t pend_alu = 0;
  uint64_t pend_branch = 0;
  uint64_t max_steps = 0;
  // Frame-resident state.
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t checks = 0;
  uint64_t status = kJitStatusOk;
  uint64_t ret = 0;
  const uint64_t* args = nullptr;
  uint64_t nargs = 0;
  const MicroOp* code = nullptr;  // decoded stream, indexed by the thunks
  // Host objects for the slow paths (null when not attached).
  Cpu* cpu = nullptr;
  Enclave* enclave = nullptr;
  Heap* heap = nullptr;
  StackAllocator* stack = nullptr;
  MpxRuntime* mpx = nullptr;
  IrSchemeRuntime* scheme = nullptr;
  MpxBounds* mpx_bounds = nullptr;  // SSA-id-indexed side table (may be null)
  uint8_t* mpx_valid = nullptr;
  void* ex_slot = nullptr;  // std::exception_ptr* owned by the RunJit wrapper
  IrSchemeKind scheme_kind{};  // which runtime `scheme` is (ops::WithScheme)
  // Tier-2 inline loads and stores (compiler.cc), from
  // Enclave::InlineAccessFor(*cpu) in OpenFrame. Generated code reads these
  // at run time and never bakes them in, so a compiled program does not
  // depend on the enclave or Cpu it runs on. inline_mem == 0 (a trace
  // recorder or fault hooks attached) sends every access to its thunk.
  uint64_t inline_mem = 0;
  const uint8_t* addressable = nullptr;  // per-page addressable bytes
  uint8_t* host_base = nullptr;          // host address of enclave byte 0
  uint32_t* l1_sets = nullptr;           // the L1 recency array, MRU way first
  uint64_t l1_set_mask = 0;
  uint64_t l1_ways = 0;
  PerfCounters* events = nullptr;  // the Cpu's live event account
  // Tier-3 inline checks (compiler.cc), filled by OpenFrame from the
  // attached runtimes' InlineCheckCounter and, like the fields above, read
  // at run time. mpx_checks is MpxStats::bndcl_bndcu (null without MPX).
  // asan_checks is AsanStats::shadow_checks, non-null only when the scheme
  // is an AsanRuntime on this frame's enclave with 8-byte granules;
  // asan_shadow_base is then its shadow_base().
  uint64_t* mpx_checks = nullptr;
  uint64_t* asan_checks = nullptr;
  uint64_t asan_shadow_base = 0;
};

// The slow-path thunk for micro-op `op` (its numeric UOp value; control-flow
// ops have none). noexcept by construction: every exception is converted
// into a kJitBail through ex_slot.
using SgxbJitSlowFn = uint64_t (*)(JitFrame*, uint64_t);
SgxbJitSlowFn SgxbJitSlowFnFor(uint16_t op);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_EXEC_JIT_JIT_FRAME_H_
