// Registry entry for the uninstrumented baseline.

#include "src/policy/native/scheme.h"

namespace sgxb {

const SchemeDescriptor& NativeScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kNative;
    d->id = "native";
    d->name = "SGX";  // the paper's name for the uninstrumented baseline
    d->aliases = {"sgx"};
    d->baseline = true;
    d->in_paper_suite = true;
    d->metadata_surface = "none";
    // All capability claims stay false: the baseline detects nothing.
    // RIPE: plain stores and blind libc copies (Resolve checks nothing).
    d->ripe_expected_prevented = 0;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
