// Registry entry for Intel MPX.

#include "src/policy/mpx/scheme.h"
#include "src/policy/run.h"

namespace sgxb {
namespace {

uint64_t BtCount(const RunResult& result) { return result.mpx_bt_count; }

}  // namespace

const SchemeDescriptor& MpxScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kMpx;
    d->id = "mpx";
    d->name = "MPX";
    d->in_paper_suite = true;
    d->metadata_surface = "two-level bounds tables in application memory";
    d->caps.detects_oob_write = true;
    d->caps.detects_oob_read = true;
    d->caps.detects_underflow = true;
    d->caps.has_metadata_corruptor = true;
    // RIPE: bndmk on allocation, bndcl/bndcu on instrumented stores; libc
    // is not instrumented, so bounds are lost across the call and copies run
    // blind - exactly why MPX stops only the two direct stack smashes.
    d->ripe_expected_prevented = 2;
    d->extra_metric_label = "mpx_bt_count";
    d->extra_metric = &BtCount;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
