// Registry entry and RIPE libc model for SGXBounds.

#include <cstring>

#include "src/policy/sgxbounds/scheme.h"
#include "src/sgxbounds/libc.h"

namespace sgxb {

bool SgxBoundsScheme::LibcCopy(Cpu& cpu, Ptr dst, const uint8_t* payload, uint32_t n) {
  // Stage the payload in an untagged scratch area (the attacker's request
  // buffer), then call the fortified wrapper.
  const uint32_t scratch = rt.heap()->Alloc(cpu, n);
  std::memcpy(rt.enclave()->space().HostPtr(scratch), payload, n);
  const LibcError err = FortifiedLibc(&rt).Memcpy(cpu, dst, MakeTagged(scratch, 0), n);
  rt.heap()->Free(cpu, scratch);
  return err == LibcError::kOk;
}

const SchemeDescriptor& SgxBoundsScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kSgxBounds;
    d->id = "sgxbounds";
    d->name = "SGXBounds";
    d->in_paper_suite = true;
    d->metadata_surface = "LB footer at [UB, UB+4) inside each object";
    d->caps.detects_oob_write = true;
    d->caps.detects_oob_read = true;
    d->caps.detects_underflow = true;
    d->caps.has_metadata_corruptor = true;
    d->caps.supports_boundless = true;
    // RIPE: the tag check on direct stores and the fortified libc catch all
    // 8 inter-object attacks; narrowing (SS8) catches the other 8 too.
    d->ripe_expected_prevented = 8;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
