// ASan IR lowering: shadow-check instrumentation (kSchemeCheck opcodes,
// AsanRuntime attached as the IrSchemeRuntime) through the scheme-generic
// check pipeline. ASan's lowering checks every
// access unconditionally (matching the paper's baseline tooling); only
// redundant-check elimination is legal on top, and it defaults off.

#ifndef SGXBOUNDS_SRC_POLICY_ASAN_IR_LOWERING_H_
#define SGXBOUNDS_SRC_POLICY_ASAN_IR_LOWERING_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/asan/scheme.h"
#include "src/policy/ir_lowering.h"

namespace sgxb {

template <>
struct SchemeIrLowering<AsanPolicy> {
  static CheckPassStats Apply(AsanPolicy& policy, Interpreter& interp,
                              IrFunction& fn, const PolicyOptions& options) {
    const CheckPassStats stats =
        RunCheckPipeline(fn, AsanCheckLowering(), CheckConfigFrom(options));
    interp.AttachScheme(&policy.runtime());
    return stats;
  }
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_ASAN_IR_LOWERING_H_
