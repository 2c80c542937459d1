// Registry entry for the shadow-distance scheme.
//
// This file and the two headers next to it are the ENTIRE scheme; the
// only line outside this directory that knows it exists is its entry in
// scheme_list.h (plus the appended PolicyKind value).

#include "src/policy/shadow/scheme.h"

namespace sgxb {

const SchemeDescriptor& ShadowScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kShadow;
    d->id = "shadow";
    d->name = "ShadowDist";
    d->aliases = {"shadowbound"};
    // Not in the paper's four-scheme suite: figure stdout stays comparable
    // with the paper by default; opt in with --policies=...,shadow or =all.
    d->in_paper_suite = false;
    d->metadata_surface =
        "4-byte {dist-to-start, dist-to-end} shadow entry per 8-byte granule "
        "(on-demand 4 MiB tables)";
    d->caps.detects_oob_write = true;
    d->caps.detects_oob_read = true;
    d->caps.detects_underflow = true;
    // free() zeroes the object's entries, so a stale anchor traps on its
    // next check - the one scheme here that claims temporal detection.
    d->caps.detects_uaf = true;
    // Shadow entries are in-memory metadata; kMetadataFlip can corrupt them.
    d->caps.has_metadata_corruptor = true;
    // Per-scheme defaults: the classic SS4.4 switches PLUS the three
    // ShadowBound-style pipeline passes - this scheme is their showcase.
    // The paper-four schemes leave these off so their instrumentation stays
    // bit-identical with the paper baselines.
    d->default_options.opt_redundant_elision = true;
    d->default_options.opt_pattern_loops = true;
    d->default_options.opt_infield_elision = true;
    // RIPE: 8/16. All 8 inter-object attacks die (the 72-byte victim
    // rounds to a 72-byte footprint, so the first overflowing byte already
    // crosses dist_end); all 8 intra-object attacks survive - shadow
    // distances describe whole allocations, not interior fields.
    d->ripe_expected_prevented = 8;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
