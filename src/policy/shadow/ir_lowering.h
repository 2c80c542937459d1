// Shadow IR lowering: anchor-tagged pointers (kMaskPtr arithmetic, exactly
// as SGXBounds) with kSchemeCheck/kSchemeCheckRange dispatched to
// ShadowRuntime, through the scheme-generic check pipeline. The 8-byte
// granule is the in-field elision floor: a constant offset below the
// object's rounded footprint can never trap, so the check is droppable when
// the pass proves it. Which of the pipeline's passes actually run comes
// from PolicyOptions - the registry defaults for this scheme turn on all
// five (see scheme.cc), making it the showcase for the ShadowBound-style
// passes.

#ifndef SGXBOUNDS_SRC_POLICY_SHADOW_IR_LOWERING_H_
#define SGXBOUNDS_SRC_POLICY_SHADOW_IR_LOWERING_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/ir_lowering.h"
#include "src/policy/shadow/scheme.h"

namespace sgxb {

template <>
struct SchemeIrLowering<ShadowPolicy> {
  static CheckPassStats Apply(ShadowPolicy& policy, Interpreter& interp,
                              IrFunction& fn, const PolicyOptions& options) {
    const CheckPassStats stats = RunCheckPipeline(
        fn, TaggedSchemeCheckLowering(kShadowGranule), CheckConfigFrom(options));
    interp.AttachScheme(&policy.runtime());
    return stats;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SHADOW_IR_LOWERING_H_
