// Registry entry for the l4ptr scheme.
//
// This file and the two headers next to it are the ENTIRE scheme; the only
// line outside this directory that knows l4ptr exists is its entry in
// scheme_list.h (plus the appended PolicyKind value).

#include "src/policy/l4ptr/scheme.h"

namespace sgxb {

const SchemeDescriptor& L4PtrScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kL4Ptr;
    d->id = "l4ptr";
    d->name = "L4Ptr";
    // Not in the paper's four-scheme suite: figure stdout stays comparable
    // with the paper by default; opt in with --policies=...,l4ptr or =all.
    d->in_paper_suite = false;
    d->metadata_surface = "pointer tag only (both bounds in upper 32 bits)";
    d->caps.detects_oob_write = true;
    d->caps.detects_oob_read = true;
    d->caps.detects_underflow = true;
    // No in-memory metadata -> nothing for kMetadataFlip to corrupt, and no
    // footer indirection to back a boundless overlay.
    // RIPE: 8/16. All 8 inter-object attacks die (the two direct smashes on
    // the tag check, the six libc-mediated ones on the range check of the
    // instrumented copy); all 8 intra-object attacks survive - and here the
    // power-of-two padding makes the miss structural: the 72-byte victim
    // struct pads to 128, so the overflow never reaches the upper bound.
    d->ripe_expected_prevented = 8;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
