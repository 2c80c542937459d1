// The one runtime ABI every allocation-interposing scheme exposes to the IR.
//
// SGXBounds, ASan, l4ptr and shadow all lower through the same generic
// kSchemeCheck/kSchemeCheckRange opcodes and the "scheme" allocation symbol
// (RunCheckPipeline, opt/pipeline.h), which the reference interpreter and the
// decoded engines dispatch to this interface (Interpreter::AttachScheme).
// Implementations charge their own simulated costs and throw SimTrap on
// violations. Only MPX keeps dedicated opcodes: its checks read bounds from a
// per-SSA side table that IrCheck(ptr, bytes, type) cannot carry.

#ifndef SGXBOUNDS_SRC_IR_SCHEME_RT_H_
#define SGXBOUNDS_SRC_IR_SCHEME_RT_H_

#include <cstdint>

#include "src/enclave/enclave.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/metadata.h"

namespace sgxb {

class IrSchemeRuntime {
 public:
  virtual ~IrSchemeRuntime() = default;

  // kAlloca with symbol "scheme": stack allocation, returns the scheme's
  // pointer representation (64-bit SSA value).
  virtual uint64_t IrAlloca(Cpu& cpu, StackAllocator& stack, uint32_t bytes) = 0;

  // kMalloc / kFree with symbol "scheme".
  virtual uint64_t IrMalloc(Cpu& cpu, uint32_t bytes) = 0;
  virtual void IrFree(Cpu& cpu, uint64_t ptr) = 0;

  // kSchemeCheck: access check before a load/store of `bytes` at `ptr`.
  virtual void IrCheck(Cpu& cpu, uint64_t ptr, uint32_t bytes, AccessType type) = 0;

  // kSchemeCheckRange: hoisted loop check over [ptr, ptr + extent).
  virtual void IrCheckRange(Cpu& cpu, uint64_t ptr, uint64_t extent) = 0;
};

// Which runtime is attached. The decoded engines' op bodies cast the two
// built-in runtimes (both `final`) to their own types so every hook is a
// direct, inlinable call; any other scheme is called through the vtable
// (ops::WithScheme, exec/ops.h).
enum class IrSchemeKind : uint8_t { kOther, kSgxBounds, kAsan };

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_SCHEME_RT_H_
