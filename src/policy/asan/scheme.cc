// Registry entry for AddressSanitizer.

#include "src/policy/asan/scheme.h"

namespace sgxb {

const SchemeDescriptor& AsanScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kAsan;
    d->id = "asan";
    d->name = "ASan";
    d->in_paper_suite = true;
    d->metadata_surface = "shadow memory (1/8 of address space) + redzones";
    d->caps.detects_oob_write = true;
    d->caps.detects_oob_read = true;
    d->caps.detects_underflow = true;
    d->caps.detects_uaf = true;  // quarantined frees keep the region poisoned
    d->caps.has_metadata_corruptor = true;
    // RIPE: shadow checks on instrumented stores plus libc interceptors; the
    // redzone gap after every stack/global object kills all 8 inter-object
    // attacks.
    d->ripe_expected_prevented = 8;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
