// Registry entry + RIPE participation for Intel MPX.

#include <cstring>

#include "src/policy/mpx/scheme.h"
#include "src/policy/run.h"
#include "src/ripe/defense.h"

namespace sgxb {
namespace {

// MPX register-held bounds pack into RipeObj.handle as (ub << 32) | lb.
uint64_t PackBounds(const MpxBounds& b) {
  return (static_cast<uint64_t>(b.ub) << 32) | b.lb;
}

MpxBounds UnpackBounds(uint64_t handle) {
  MpxBounds b;
  b.lb = static_cast<uint32_t>(handle);
  b.ub = static_cast<uint32_t>(handle >> 32);
  return b;
}

// bndmk on allocation, bndcl/bndcu on instrumented stores; libc is NOT
// instrumented, so bounds are lost across the call and copies run blind -
// exactly why MPX stops only the two direct stack smashes in Table 4.
class MpxRipeDefense final : public RipeDefense {
 public:
  explicit MpxRipeDefense(const RipeMachine& m) : m_(m), rt_(m.enclave) {}

  RipeObj AllocateHeap(Cpu& cpu, uint32_t size) override {
    RipeObj obj;
    obj.size = size;
    obj.addr = m_.heap->Alloc(cpu, size);
    obj.handle = PackBounds(rt_.BndMk(cpu, obj.addr, size));
    return obj;
  }

  void RegisterNonHeap(Cpu& cpu, RipeObj& obj) override {
    obj.handle = PackBounds(rt_.BndMk(cpu, obj.addr, obj.size));
  }

  bool StoreByte(Cpu& cpu, const RipeObj& obj, uint32_t offset, uint8_t value) override {
    rt_.BndCheck(cpu, UnpackBounds(obj.handle), obj.addr + offset, 1);
    m_.enclave->Store<uint8_t>(cpu, obj.addr + offset, value);
    return true;
  }

  bool LibcCopyInto(Cpu& cpu, const RipeObj& obj, const uint8_t* payload,
                    uint32_t n) override {
    // Uninstrumented libc: the bounds never reach the callee.
    cpu.MemAccess(obj.addr, n, AccessClass::kAppStore);
    std::memcpy(m_.enclave->space().HostPtr(obj.addr), payload, n);
    return true;
  }

 private:
  RipeMachine m_;
  MpxRuntime rt_;
};

std::unique_ptr<RipeDefense> MakeDefense(const RipeMachine& m) {
  return std::make_unique<MpxRipeDefense>(m);
}

uint64_t BtCount(const RunResult& result) { return result.mpx_bt_count; }

}  // namespace

const SchemeDescriptor& MpxScheme::Descriptor() {
  static const SchemeDescriptor* desc = [] {
    auto* d = new SchemeDescriptor();
    d->kind = PolicyKind::kMpx;
    d->id = "mpx";
    d->name = "MPX";
    d->in_paper_suite = true;
    d->metadata_surface = "two-level bounds tables in application memory";
    d->caps.detects_oob_write = true;
    d->caps.detects_oob_read = true;
    d->caps.detects_underflow = true;
    d->caps.has_metadata_corruptor = true;
    d->ripe_expected_prevented = 2;
    d->extra_metric_label = "mpx_bt_count";
    d->extra_metric = &BtCount;
    d->make_ripe_defense = &MakeDefense;
    return d;
  }();
  return *desc;
}

}  // namespace sgxb
