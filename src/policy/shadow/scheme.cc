// Registry entry + RIPE participation for the shadow-distance scheme.
//
// This file and the three headers next to it are the ENTIRE scheme; the
// only line outside this directory that knows it exists is its entry in
// scheme_list.h (plus the appended PolicyKind value).

#include <cstring>

#include "src/policy/shadow/scheme.h"
#include "src/ripe/defense.h"

namespace sgxb {
namespace {

// Bounds live in shadow entries keyed by the pointer's anchor; carved
// objects are padded only to the 8-byte granule (no power-of-two blowup).
// Instrumented libc checks the destination range against the shadow entry
// before copying.
//
// Expected Table 4 outcome: 8/16. All 8 inter-object attacks die (the
// 72-byte victim rounds to a 72-byte footprint, so the first overflowing
// byte already crosses dist_end); all 8 intra-object attacks survive -
// shadow distances describe whole allocations, not interior fields, the
// same structural miss as every other bounds scheme here.
class ShadowRipeDefense final : public RipeDefense {
 public:
  explicit ShadowRipeDefense(const RipeMachine& m)
      : m_(m), rt_(m.enclave, m.heap) {}

  RipeObj AllocateHeap(Cpu& cpu, uint32_t size) override {
    RipeObj obj;
    obj.size = size;
    obj.handle = rt_.Malloc(cpu, size);
    obj.addr = ShAddr(obj.handle);
    return obj;
  }

  void RegisterNonHeap(Cpu& cpu, RipeObj& obj) override {
    obj.handle = rt_.SpecifyBounds(cpu, obj.addr, obj.size);
  }

  uint32_t CarveAlign() const override { return kShadowGranule; }
  uint32_t CarveFootprint(uint32_t size) const override { return ShFootprint(size); }

  bool StoreByte(Cpu& cpu, const RipeObj& obj, uint32_t offset, uint8_t value) override {
    rt_.CheckAccess(cpu, ShAdd(obj.handle, offset), 1, AccessType::kWrite);
    m_.enclave->Store<uint8_t>(cpu, obj.addr + offset, value);
    return true;
  }

  bool LibcCopyInto(Cpu& cpu, const RipeObj& obj, const uint8_t* payload,
                    uint32_t n) override {
    // Instrumented memcpy: one range check on the destination's shadow entry.
    rt_.CheckRange(cpu, obj.handle, n);
    cpu.MemAccess(obj.addr, n, AccessClass::kAppStore);
    std::memcpy(m_.enclave->space().HostPtr(obj.addr), payload, n);
    return true;
  }

 private:
  RipeMachine m_;
  ShadowRuntime rt_;
};

std::unique_ptr<RipeDefense> MakeDefense(const RipeMachine& m) {
  return std::make_unique<ShadowRipeDefense>(m);
}

}  // namespace

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
    d->ripe_expected_prevented = 8;
    d->make_ripe_defense = &MakeDefense;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
