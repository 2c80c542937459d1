// Registry entry + RIPE participation for the uninstrumented baseline.

#include <cstring>

#include "src/policy/native/scheme.h"
#include "src/ripe/defense.h"

namespace sgxb {
namespace {

// No defense at all: plain stores, blind libc copies.
class NativeRipeDefense final : public RipeDefense {
 public:
  explicit NativeRipeDefense(const RipeMachine& m) : m_(m) {}

  RipeObj AllocateHeap(Cpu& cpu, uint32_t size) override {
    RipeObj obj;
    obj.size = size;
    obj.addr = m_.heap->Alloc(cpu, size);
    return obj;
  }

  void RegisterNonHeap(Cpu& cpu, RipeObj& obj) override {
    (void)cpu;
    (void)obj;
  }

  bool StoreByte(Cpu& cpu, const RipeObj& obj, uint32_t offset, uint8_t value) override {
    m_.enclave->Store<uint8_t>(cpu, obj.addr + offset, value);
    return true;
  }

  bool LibcCopyInto(Cpu& cpu, const RipeObj& obj, const uint8_t* payload,
                    uint32_t n) override {
    cpu.MemAccess(obj.addr, n, AccessClass::kAppStore);
    std::memcpy(m_.enclave->space().HostPtr(obj.addr), payload, n);
    return true;
  }

 private:
  RipeMachine m_;
};

std::unique_ptr<RipeDefense> MakeDefense(const RipeMachine& m) {
  return std::make_unique<NativeRipeDefense>(m);
}

}  // namespace

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
    d->ripe_expected_prevented = 0;
    d->make_ripe_defense = &MakeDefense;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
