// l4ptr IR lowering: the generic scheme pass (kSchemeCheck opcodes, "scheme"
// allocation symbol) with the runtime attached through the interpreter's
// pluggable IrSchemeRuntime hook - no l4ptr-specific opcode exists anywhere
// in src/ir.
//
// Pass placement is the shared check pipeline (src/ir/opt). l4ptr pads
// every allocation to a power of two >= 32 bytes (kL4Granule), so in-field
// elision is legal with a 32-byte floor: a constant offset+size <= 32 from
// an allocation base is inside the padded footprint whenever the first
// access through that base was.

#ifndef SGXBOUNDS_SRC_POLICY_L4PTR_IR_LOWERING_H_
#define SGXBOUNDS_SRC_POLICY_L4PTR_IR_LOWERING_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/ir_lowering.h"
#include "src/policy/l4ptr/scheme.h"

namespace sgxb {

template <>
struct SchemeIrLowering<L4PtrPolicy> {
  static CheckPassStats Apply(L4PtrPolicy& policy, Interpreter& interp,
                              IrFunction& fn, const PolicyOptions& options) {
    const CheckPassStats stats = RunCheckPipeline(
        fn, TaggedSchemeCheckLowering(kL4Granule), CheckConfigFrom(options));
    interp.AttachScheme(&policy.runtime());
    return stats;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_L4PTR_IR_LOWERING_H_
