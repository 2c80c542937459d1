// MPX IR lowering: bndcl/bndcu instrumentation plus bndldx/bndstx at
// pointer-in-memory sites (kMpx* opcodes), through the scheme-generic check
// pipeline. MPX's tooling implements no elision/hoisting (matching the
// paper's baseline); redundant-check elimination is legal (bndldx/bndstx
// traffic is preserved even where a check is deleted) and defaults off.

#ifndef SGXBOUNDS_SRC_POLICY_MPX_IR_LOWERING_H_
#define SGXBOUNDS_SRC_POLICY_MPX_IR_LOWERING_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/ir_lowering.h"
#include "src/policy/mpx/scheme.h"

namespace sgxb {

template <>
struct SchemeIrLowering<MpxPolicy> {
  static CheckPassStats Apply(MpxPolicy& policy, Interpreter& interp,
                              IrFunction& fn, const PolicyOptions& options) {
    const CheckPassStats stats =
        RunCheckPipeline(fn, MpxCheckLowering(), CheckConfigFrom(options));
    interp.AttachMpx(&policy.runtime());
    return stats;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_MPX_IR_LOWERING_H_
