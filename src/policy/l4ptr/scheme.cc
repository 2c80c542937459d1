// Registry entry + RIPE participation for the l4ptr scheme.
//
// This file and the two headers next to it are the ENTIRE scheme; the only
// line outside this directory that knows l4ptr exists is its entry in
// scheme_list.h (plus the appended PolicyKind value).

#include <cstring>

#include "src/policy/l4ptr/scheme.h"
#include "src/ripe/defense.h"

namespace sgxb {
namespace {

// Bounds live in the pointer tag; every carved object is padded to a power
// of two on a 32-byte base. Instrumented libc checks the destination range
// against the tag before copying - register-only, like every l4ptr check.
//
// Expected Table 4 outcome: 8/16. All 8 inter-object attacks die (the two
// direct smashes on the tag check, the six libc-mediated ones on the
// wrapper's range check); all 8 intra-object attacks survive - and here the
// power-of-two padding makes the miss structural: the 72-byte victim struct
// pads to 128, so the overflow never even reaches the object's upper bound.
class L4PtrRipeDefense final : public RipeDefense {
 public:
  explicit L4PtrRipeDefense(const RipeMachine& m)
      : m_(m), rt_(m.enclave, m.heap) {}

  RipeObj AllocateHeap(Cpu& cpu, uint32_t size) override {
    RipeObj obj;
    obj.size = size;
    obj.handle = rt_.Malloc(cpu, size);
    obj.addr = L4Addr(obj.handle);
    return obj;
  }

  void RegisterNonHeap(Cpu& cpu, RipeObj& obj) override {
    obj.handle = rt_.SpecifyBounds(cpu, obj.addr, obj.size);
  }

  uint32_t CarveAlign() const override { return kL4Granule; }
  uint32_t CarveFootprint(uint32_t size) const override { return L4PaddedSize(size); }

  bool StoreByte(Cpu& cpu, const RipeObj& obj, uint32_t offset, uint8_t value) override {
    rt_.CheckAccess(cpu, L4Add(obj.handle, offset), 1, AccessType::kWrite);
    m_.enclave->Store<uint8_t>(cpu, obj.addr + offset, value);
    return true;
  }

  bool LibcCopyInto(Cpu& cpu, const RipeObj& obj, const uint8_t* payload,
                    uint32_t n) override {
    // Instrumented memcpy: one range check on the destination tag.
    rt_.CheckRange(cpu, obj.handle, n);
    cpu.MemAccess(obj.addr, n, AccessClass::kAppStore);
    std::memcpy(m_.enclave->space().HostPtr(obj.addr), payload, n);
    return true;
  }

 private:
  RipeMachine m_;
  L4PtrRuntime rt_;
};

std::unique_ptr<RipeDefense> MakeDefense(const RipeMachine& m) {
  return std::make_unique<L4PtrRipeDefense>(m);
}

}  // namespace

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
    d->ripe_expected_prevented = 8;
    d->make_ripe_defense = &MakeDefense;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
