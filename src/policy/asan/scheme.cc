// Registry entry + RIPE participation for AddressSanitizer.

#include <cstring>

#include "src/policy/asan/scheme.h"
#include "src/ripe/defense.h"

namespace sgxb {
namespace {

// Shadow-memory checks on instrumented stores plus libc interceptors; the
// carve layout leaves a 32-byte redzone gap after every stack/global object
// (poisoned by RegisterObject), which is how all 8 inter-object attacks die.
class AsanRipeDefense final : public RipeDefense {
 public:
  explicit AsanRipeDefense(const RipeMachine& m)
      : m_(m), rt_(m.enclave, m.heap) {}

  RipeObj AllocateHeap(Cpu& cpu, uint32_t size) override {
    RipeObj obj;
    obj.size = size;
    obj.addr = rt_.Malloc(cpu, size);
    return obj;
  }

  void RegisterNonHeap(Cpu& cpu, RipeObj& obj) override {
    rt_.RegisterObject(cpu, obj.addr, obj.size, AsanRuntime::kShadowGlobalRedzone);
  }

  // ASan's stack/global instrumentation separates objects with redzones; the
  // extra 32 bytes reproduce that gap.
  uint32_t CarveFootprint(uint32_t size) const override { return size + 32; }

  bool StoreByte(Cpu& cpu, const RipeObj& obj, uint32_t offset, uint8_t value) override {
    rt_.CheckAccess(cpu, obj.addr + offset, 1, /*is_write=*/true);
    m_.enclave->Store<uint8_t>(cpu, obj.addr + offset, value);
    return true;
  }

  bool LibcCopyInto(Cpu& cpu, const RipeObj& obj, const uint8_t* payload,
                    uint32_t n) override {
    // The memcpy interceptor checks the whole range; throws on overflow.
    rt_.CheckAccess(cpu, obj.addr, n, /*is_write=*/true);
    cpu.MemAccess(obj.addr, n, AccessClass::kAppStore);
    std::memcpy(m_.enclave->space().HostPtr(obj.addr), payload, n);
    return true;
  }

 private:
  RipeMachine m_;
  AsanRuntime rt_;
};

std::unique_ptr<RipeDefense> MakeDefense(const RipeMachine& m) {
  return std::make_unique<AsanRipeDefense>(m);
}

}  // namespace

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
    d->ripe_expected_prevented = 8;
    d->make_ripe_defense = &MakeDefense;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
