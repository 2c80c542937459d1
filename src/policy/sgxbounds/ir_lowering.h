// SGXBounds IR lowering: the shared tagged-pointer lowering (kSchemeCheck
// opcodes, "scheme" allocation symbol) run through the scheme-generic check
// pipeline, with SgxBoundsRuntime attached as the IrSchemeRuntime.
//
// SGXBounds' LB/UB are exact (no allocation padding floor), so in-field
// elision is not legal here (floor 0); every other pass is.

#ifndef SGXBOUNDS_SRC_POLICY_SGXBOUNDS_IR_LOWERING_H_
#define SGXBOUNDS_SRC_POLICY_SGXBOUNDS_IR_LOWERING_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/ir_lowering.h"
#include "src/policy/sgxbounds/scheme.h"

namespace sgxb {

template <>
struct SchemeIrLowering<SgxBoundsPolicy> {
  static CheckPassStats Apply(SgxBoundsPolicy& policy, Interpreter& interp,
                              IrFunction& fn, const PolicyOptions& options) {
    const CheckPassStats stats =
        RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), CheckConfigFrom(options));
    interp.AttachScheme(&policy.runtime());
    return stats;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SGXBOUNDS_IR_LOWERING_H_
