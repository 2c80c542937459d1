// RunIrFunction: the one instrument-attach-run path for IR programs under a
// registered scheme, shared by the "ir" workload suite and fig10's
// per-pass ablation. Kept out of workload.h so the policy-templated
// workload bodies do not compile against the interpreter's headers.

#ifndef SGXBOUNDS_SRC_WORKLOADS_RUN_IR_H_
#define SGXBOUNDS_SRC_WORKLOADS_RUN_IR_H_

#include "src/ir/interp.h"
#include "src/policy/run.h"

namespace sgxb {

// PolicyOptions -> check-pipeline toggles.
inline CheckPassConfig CheckConfigFrom(const PolicyOptions& options) {
  CheckPassConfig config;
  config.elide_safe = options.opt_safe_elision;
  config.hoist_loops = options.opt_hoist_checks;
  config.elide_redundant = options.opt_redundant_elision;
  config.pattern_loops = options.opt_pattern_loops;
  config.elide_infield = options.opt_infield_elision;
  return config;
}

// Instruments `fn` with the scheme's IR lowering (Scheme::IrLowering; a
// scheme without one, native, runs bare), attaches the scheme's runtime and
// runs the function on env's engine - the analog of compiling with the
// scheme's LLVM pass and running the binary. Returns the function's result;
// pass statistics accumulate into env.pass_stats. The runtime is attached
// through its concrete type, so SGXBounds and ASan keep the interpreter's
// direct dispatch (IrSchemeKind) and only l4ptr/shadow go through the
// IrSchemeRuntime vtable; MPX attaches as the bounds-table runtime.
template <typename P>
uint64_t RunIrFunction(Env<P>& env, IrFunction fn) {
  using Scheme = typename P::SchemeType;
  StackAllocator stack(&env.enclave, 1 * kMiB, "ir-stack");
  Interpreter interp(&env.enclave, &env.heap, &stack);
  interp.set_engine(env.options.ir_engine);
  if constexpr (requires { Scheme::IrLowering(); }) {
    env.pass_stats.Accumulate(
        RunCheckPipeline(fn, Scheme::IrLowering(), CheckConfigFrom(env.options)));
    if constexpr (requires { interp.AttachScheme(&env.policy.runtime()); }) {
      interp.AttachScheme(&env.policy.runtime());
    } else {
      interp.AttachMpx(&env.policy.runtime());
    }
  }
  return interp.Run(fn, env.cpu, {}, /*max_steps=*/UINT64_MAX);
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_WORKLOADS_RUN_IR_H_
