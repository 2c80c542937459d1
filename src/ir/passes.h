// Compatibility facade over the scheme-generic check-optimization pipeline
// (src/ir/opt/). The historical entry points — the reproduction of the
// paper's LLVM pass (SS5.1) and of the baselines' compiler support — are
// kept as thin wrappers:
//
//   RunSgxBoundsPass: routes malloc/alloca/free to the attached scheme
//     runtime, masks pointer arithmetic (kMaskPtr after every gep), inserts
//     kSchemeCheck before every load/store. Options control the two SS4.4
//     optimizations (safe-access elision, SCEV loop hoisting). The output
//     runs under any tagged-pointer IrSchemeRuntime (SGXBounds, l4ptr,
//     shadow).
//   RunAsanPass: allocator interception + shadow check before every access.
//   RunMpxPass: bndcl/bndcu before every access, bndldx after pointer loads,
//     bndstx after pointer stores.
//
// New code (every SchemeIrLowering specialization) should call
// RunCheckPipeline directly: it adds the ShadowBound-style passes
// (redundant-check elimination, pattern loop hoisting, in-field elision)
// behind per-scheme legality masks. The analyses formerly declared here
// (FindCountedLoops, LoopInfo, safe-access analysis) live in
// src/ir/opt/analysis.h and are re-exported through this header.
//
// All passes preserve program semantics for in-bounds executions.

#ifndef SGXBOUNDS_SRC_IR_PASSES_H_
#define SGXBOUNDS_SRC_IR_PASSES_H_

#include "src/ir/opt/analysis.h"
#include "src/ir/opt/pipeline.h"

namespace sgxb {

struct SgxPassOptions {
  bool elide_safe = true;
  bool hoist_loops = true;
  // SS4.4: hoisting applies only to loops with increments up to 1024 bytes.
  uint32_t max_hoist_stride = 1024;
};

struct SgxPassStats {
  uint32_t checks_inserted = 0;
  uint32_t checks_elided_safe = 0;
  uint32_t checks_hoisted = 0;
  uint32_t geps_masked = 0;
};

SgxPassStats RunSgxBoundsPass(IrFunction& fn, const SgxPassOptions& options = {});

struct BaselinePassStats {
  uint32_t checks_inserted = 0;
  uint32_t ptr_loads_instrumented = 0;   // MPX bndldx
  uint32_t ptr_stores_instrumented = 0;  // MPX bndstx
};

BaselinePassStats RunAsanPass(IrFunction& fn);
BaselinePassStats RunMpxPass(IrFunction& fn);

// True if the load/store at (block, index) is provably in bounds: its
// address is gep(object, const index) with const offset+size within the
// object's statically known size.
bool IsProvablySafeAccess(const IrFunction& fn, uint32_t block, size_t instr_index);

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_IR_PASSES_H_
