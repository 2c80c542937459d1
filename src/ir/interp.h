// IR interpreter executing over the simulated enclave.
//
// Every instruction charges its cost on the Cpu; loads/stores move real bytes
// through Enclave::Load/Store (cache + EPC + MEE charged); instrumentation
// opcodes call into the attached hardening runtime - one IrSchemeRuntime
// (SGXBounds, ASan, l4ptr or shadow) or MPX. Violations surface as SimTrap,
// exactly like the policy layer.
//
// Pointer values follow the instrumentation mode: an uninstrumented program
// holds raw 32-bit addresses in 64-bit SSA values; an SGXBounds-instrumented
// program holds tagged pointers (the pass rewrites allocations, masks
// arithmetic, and inserts checks).
//
// Three execution engines produce bit-identical simulated results:
//
//   * reference - the original per-instruction switch over IrInstr vectors
//     (RunReference); kept as the differential-testing oracle;
//   * threaded  - functions are pre-decoded once into a flat micro-op stream
//     (src/ir/exec/) and executed with direct-threaded dispatch; decoded
//     programs are cached per (function, instrumentation) pair;
//   * jit       - decoded streams are template-compiled to native x86-64
//     (src/ir/exec/jit/) and cached under the same key; where executable
//     memory is unavailable, jit falls back to threaded with a one-time
//     warning (SGXB_IR_FORCE_NOEXEC forces that path).
//
// Run() routes according to set_engine(); the default follows the process
// default (--ir_engine flag; threaded unless overridden).

#ifndef SGXBOUNDS_SRC_IR_INTERP_H_
#define SGXBOUNDS_SRC_IR_INTERP_H_

#include <vector>

#include "src/asan/asan_runtime.h"
#include "src/common/ir_engine.h"
#include "src/ir/exec/decode_cache.h"
#include "src/ir/exec/jit/jit_cache.h"
#include "src/ir/ir.h"
#include "src/ir/scheme_rt.h"
#include "src/mpx/mpx_runtime.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

struct InterpStats {
  uint64_t steps = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t checks = 0;
};

class Interpreter {
 public:
  Interpreter(Enclave* enclave, Heap* heap, StackAllocator* stack);

  // Attaches the runtime that executes the program's scheme instrumentation
  // (kSchemeCheck*, "scheme" allocations). One interpreter serves one
  // scheme: attaching a different runtime than the one already attached is
  // a fatal error, and so is running scheme ops with none attached. The
  // typed overloads let the engines call the two built-in runtimes
  // directly; any other runtime goes through the vtable.
  void AttachScheme(SgxBoundsRuntime* rt) { Attach(rt, IrSchemeKind::kSgxBounds); }
  void AttachScheme(AsanRuntime* rt);
  void AttachScheme(IrSchemeRuntime* rt) { Attach(rt, IrSchemeKind::kOther); }
  // MPX keeps dedicated opcodes (its bounds live in a per-SSA side table).
  void AttachMpx(MpxRuntime* rt);

  // Selects the execution engine for subsequent Run() calls. kDefault
  // resolves to the process default (see src/common/ir_engine.h).
  void set_engine(IrEngine engine) { engine_ = engine; }
  IrEngine engine() const { return engine_; }

  // Executes `fn`; returns the kRet value (0 if none). Throws SimTrap on
  // memory-safety violations and on exceeding `max_steps` (runaway loop).
  uint64_t Run(const IrFunction& fn, Cpu& cpu, const std::vector<uint64_t>& args = {},
               uint64_t max_steps = 200 * 1000 * 1000);

  // The oracle: always interprets IrInstr vectors directly, regardless of
  // the selected engine.
  uint64_t RunReference(const IrFunction& fn, Cpu& cpu,
                        const std::vector<uint64_t>& args = {},
                        uint64_t max_steps = 200 * 1000 * 1000);

  const InterpStats& stats() const { return stats_; }
  const DecodeCache& decode_cache() const { return cache_; }
  const JitCache& jit_cache() const { return jit_cache_; }

 private:
  // Direct-threaded execution of a decoded program (src/ir/exec/engine.cc).
  uint64_t RunDecoded(const DecodedFunction& df, Cpu& cpu,
                      const std::vector<uint64_t>& args, uint64_t max_steps);
  // Native execution of a compiled program (src/ir/exec/engine.cc).
  uint64_t RunJit(const jit::JitProgram& jp, Cpu& cpu,
                  const std::vector<uint64_t>& args, uint64_t max_steps);
  // The frame both engines run on: OpenFrame sizes the slot array and MPX
  // side table and seeds the hot counters from stats_; CloseFrame flushes
  // pending charges, writes the counters back and pops `stack_frame`.
  JitFrame OpenFrame(uint32_t num_slots, bool track_mpx, Cpu& cpu,
                     const std::vector<uint64_t>& args, uint64_t max_steps);
  void CloseFrame(JitFrame& f, uint32_t stack_frame);
  void Attach(IrSchemeRuntime* rt, IrSchemeKind kind);

  Enclave* enclave_;
  Heap* heap_;
  StackAllocator* stack_;
  MpxRuntime* mpx_ = nullptr;
  IrSchemeRuntime* scheme_ = nullptr;
  IrSchemeKind scheme_kind_ = IrSchemeKind::kOther;
  // The runtimes' check counters for the JIT's inline checks (JitFrame's
  // mpx_checks, asan_checks, asan_shadow_base), taken once at attach.
  uint64_t* mpx_checks_ = nullptr;
  uint64_t* asan_checks_ = nullptr;
  uint32_t asan_shadow_base_ = 0;
  InterpStats stats_;
  IrEngine engine_ = IrEngine::kDefault;
  DecodeCache cache_;
  JitCache jit_cache_;

  // Scratch buffers reused across Run() calls (sized to fn.num_values each
  // call; capacity persists so steady-state runs allocate nothing). The MPX
  // side table is a flat array indexed by SSA id — the "register" association
  // a compiler tracks for pointer temps — with a validity byte instead of a
  // hash lookup. Only populated when an MPX runtime is attached.
  std::vector<uint64_t> values_;
  std::vector<MpxBounds> mpx_bounds_;
  std::vector<uint8_t> mpx_valid_;
  std::vector<std::pair<ValueId, uint64_t>> phi_scratch_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_INTERP_H_
