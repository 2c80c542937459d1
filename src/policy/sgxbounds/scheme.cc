// Registry entry + RIPE participation for SGXBounds.

#include <cstring>

#include "src/policy/sgxbounds/scheme.h"
#include "src/ripe/defense.h"
#include "src/sgxbounds/libc.h"

namespace sgxb {
namespace {

// Tagged pointers + LB footers; libc goes through the fortified wrappers
// (SS5.1), which refuse an overflowing copy with EINVAL. The carve layout
// reserves FooterBytes() after every object for its LB footer.
class SgxBoundsRipeDefense final : public RipeDefense {
 public:
  explicit SgxBoundsRipeDefense(const RipeMachine& m)
      : m_(m), rt_(m.enclave, m.heap), libc_(&rt_) {}

  RipeObj AllocateHeap(Cpu& cpu, uint32_t size) override {
    RipeObj obj;
    obj.size = size;
    obj.handle = rt_.Malloc(cpu, size);
    obj.addr = ExtractPtr(obj.handle);
    return obj;
  }

  void RegisterNonHeap(Cpu& cpu, RipeObj& obj) override {
    obj.handle = rt_.SpecifyBounds(cpu, obj.addr, obj.addr + obj.size, ObjKind::kGlobal);
  }

  uint32_t CarveFootprint(uint32_t size) const override {
    return size + rt_.FooterBytes();
  }

  bool StoreByte(Cpu& cpu, const RipeObj& obj, uint32_t offset, uint8_t value) override {
    rt_.CheckAccessAuto(cpu, TaggedAdd(obj.handle, offset), 1, AccessType::kWrite);
    m_.enclave->Store<uint8_t>(cpu, obj.addr + offset, value);
    return true;
  }

  bool LibcCopyInto(Cpu& cpu, const RipeObj& obj, const uint8_t* payload,
                    uint32_t n) override {
    // Stage the payload in an untagged scratch area (the attacker's request
    // buffer), then call the fortified wrapper.
    const uint32_t scratch = m_.heap->Alloc(cpu, n);
    std::memcpy(m_.enclave->space().HostPtr(scratch), payload, n);
    const TaggedPtr src = MakeTagged(scratch, 0);
    const LibcError err = libc_.Memcpy(cpu, obj.handle, src, n);
    m_.heap->Free(cpu, scratch);
    return err == LibcError::kOk;
  }

  // SS8 extension: narrow &obj.field to the field's bounds.
  bool NarrowTo(Cpu& cpu, RipeObj& obj, uint32_t offset, uint32_t len) override {
    obj.handle = rt_.NarrowBounds(cpu, obj.handle, offset, len);
    return true;
  }

 private:
  RipeMachine m_;
  SgxBoundsRuntime rt_;
  FortifiedLibc libc_;
};

std::unique_ptr<RipeDefense> MakeDefense(const RipeMachine& m) {
  return std::make_unique<SgxBoundsRipeDefense>(m);
}

}  // namespace

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
    d->ripe_expected_prevented = 8;
    d->make_ripe_defense = &MakeDefense;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
