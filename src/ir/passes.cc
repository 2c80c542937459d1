#include "src/ir/passes.h"

namespace sgxb {

namespace {

CheckPassConfig ConfigFrom(const SgxPassOptions& options) {
  CheckPassConfig config;
  config.elide_safe = options.elide_safe;
  config.hoist_loops = options.hoist_loops;
  config.max_hoist_stride = options.max_hoist_stride;
  return config;
}

SgxPassStats Narrow(const CheckPassStats& s) {
  SgxPassStats out;
  out.checks_inserted = s.checks_inserted;
  out.checks_elided_safe = s.checks_elided_safe;
  out.checks_hoisted = s.checks_hoisted;
  out.geps_masked = s.geps_masked;
  return out;
}

}  // namespace

bool IsProvablySafeAccess(const IrFunction& fn, uint32_t block, size_t instr_index) {
  const auto defs = BuildIrDefs(fn);
  return IsSafeIrAccess(defs, fn.blocks[block].instrs[instr_index]);
}

SgxPassStats RunSgxBoundsPass(IrFunction& fn, const SgxPassOptions& options) {
  return Narrow(RunCheckPipeline(fn, TaggedSchemeCheckLowering(0), ConfigFrom(options)));
}

BaselinePassStats RunAsanPass(IrFunction& fn) {
  const CheckPassStats s = RunCheckPipeline(fn, AsanCheckLowering(), CheckPassConfig{});
  BaselinePassStats out;
  out.checks_inserted = s.checks_inserted;
  return out;
}

BaselinePassStats RunMpxPass(IrFunction& fn) {
  const CheckPassStats s = RunCheckPipeline(fn, MpxCheckLowering(), CheckPassConfig{});
  BaselinePassStats out;
  out.checks_inserted = s.checks_inserted;
  out.ptr_loads_instrumented = s.ptr_loads_instrumented;
  out.ptr_stores_instrumented = s.ptr_stores_instrumented;
  return out;
}

}  // namespace sgxb
