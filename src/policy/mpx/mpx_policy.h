// Intel MPX as a workload policy: a pointer travels with its bounds "in a
// register" (part of Ptr); every access pays bndcl/bndcu; storing or loading
// a pointer through memory pays the bndstx/bndldx two-level table walk unless
// the 4-register file still holds that slot's bounds. Allocation itself is
// uninstrumented (bounds live in the disjoint tables).

#ifndef SGXBOUNDS_SRC_POLICY_MPX_MPX_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_MPX_MPX_POLICY_H_

#include "src/fault/fault.h"
#include "src/mpx/mpx_runtime.h"
#include "src/policy/policy.h"
#include "src/policy/registry.h"

namespace sgxb {

class MpxPolicy {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kMpx;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  struct Ptr {
    uint32_t addr = 0;
    MpxBounds bounds;  // INIT bounds for untagged pointers
  };

  MpxPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : enclave_(enclave), heap_(heap), rt_(enclave) {
    (void)options;
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) {
    const uint32_t addr = heap_->Alloc(cpu, size);
    return Ptr{addr, rt_.BndMk(cpu, addr, size)};
  }

  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    const uint32_t addr = heap_->Alloc(cpu, size, align);
    return Ptr{addr, rt_.BndMk(cpu, addr, size)};
  }

  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) {
    const uint32_t total = CallocBytes(count, elem);
    const Ptr p = Malloc(cpu, total);
    std::memset(enclave_->space().HostPtr(p.addr), 0, total);
    cpu.MemAccess(p.addr, total, AccessClass::kAppStore);
    return p;
  }

  void Free(Cpu& cpu, Ptr p) { heap_->Free(cpu, p.addr); }

  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) {
    cpu.Alu(1);
    return Ptr{static_cast<uint32_t>(p.addr + delta), p.bounds};
  }

  uint32_t AddrOf(Ptr p) const { return p.addr; }
  static Ptr FromAddr(uint32_t addr) { return Ptr{addr, MpxBounds{}}; }

  template <typename T>
  T Load(Cpu& cpu, Ptr p) {
    rt_.BndCheck(cpu, p.bounds, p.addr, sizeof(T));
    return enclave_->Load<T>(cpu, p.addr);
  }

  template <typename T>
  void Store(Cpu& cpu, Ptr p, T value) {
    rt_.BndCheck(cpu, p.bounds, p.addr, sizeof(T));
    enclave_->Store<T>(cpu, p.addr, value);
  }

  // Checked access at a dynamic offset: bounds stay in the register, the
  // check is bndcl+bndcu.
  template <typename T>
  T LoadAt(Cpu& cpu, Ptr p, uint64_t off) {
    cpu.Alu(1);
    const uint32_t addr = p.addr + static_cast<uint32_t>(off);
    rt_.BndCheck(cpu, p.bounds, addr, sizeof(T));
    return enclave_->Load<T>(cpu, addr);
  }

  template <typename T>
  void StoreAt(Cpu& cpu, Ptr p, uint64_t off, T value) {
    cpu.Alu(1);
    const uint32_t addr = p.addr + static_cast<uint32_t>(off);
    rt_.BndCheck(cpu, p.bounds, addr, sizeof(T));
    enclave_->Store<T>(cpu, addr, value);
  }

  // Field access: bounds are already in a register, so the check is 2 ALU.
  template <typename T>
  T LoadField(Cpu& cpu, Ptr p, uint32_t off) {
    cpu.Alu(1);
    rt_.BndCheck(cpu, p.bounds, p.addr + off, sizeof(T));
    return enclave_->Load<T>(cpu, p.addr + off);
  }

  template <typename T>
  void StoreField(Cpu& cpu, Ptr p, uint32_t off, T value) {
    cpu.Alu(1);
    rt_.BndCheck(cpu, p.bounds, p.addr + off, sizeof(T));
    enclave_->Store<T>(cpu, p.addr + off, value);
  }

  // Pointer-in-memory: this is where MPX hurts. A pointer load must also
  // bndldx its bounds (2 dependent metadata loads); a pointer store must
  // bndstx (metadata store + possible BT allocation).
  Ptr LoadPtr(Cpu& cpu, Ptr slot) {
    rt_.BndCheck(cpu, slot.bounds, slot.addr, kPtrSlotBytes);
    const uint64_t raw = enclave_->Load<uint64_t>(cpu, slot.addr);
    const uint32_t value = static_cast<uint32_t>(raw);
    MpxBounds bounds;
    if (!rt_.RegLookup(slot.addr, &bounds)) {
      bounds = rt_.BndLdx(cpu, slot.addr, value);
    }
    return Ptr{value, bounds};
  }

  void StorePtr(Cpu& cpu, Ptr slot, Ptr value) {
    rt_.BndCheck(cpu, slot.bounds, slot.addr, kPtrSlotBytes);
    enclave_->Store<uint64_t>(cpu, slot.addr, static_cast<uint64_t>(value.addr));
    rt_.BndStx(cpu, slot.addr, value.addr, value.bounds);
  }

  // Loop span: bounds stay in the register; per-access bndcl/bndcu remain
  // (MPX has no check-hoisting pass in GCC's instrumentation).
  class Span {
   public:
    Span(MpxPolicy* policy, Ptr base) : policy_(policy), base_(base) {}

    template <typename T>
    T Load(Cpu& cpu, uint64_t byte_off) {
      cpu.Alu(1);
      const uint32_t addr = base_.addr + static_cast<uint32_t>(byte_off);
      policy_->rt_.BndCheck(cpu, base_.bounds, addr, sizeof(T));
      return policy_->enclave_->Load<T>(cpu, addr);
    }
    template <typename T>
    void Store(Cpu& cpu, uint64_t byte_off, T value) {
      cpu.Alu(1);
      const uint32_t addr = base_.addr + static_cast<uint32_t>(byte_off);
      policy_->rt_.BndCheck(cpu, base_.bounds, addr, sizeof(T));
      policy_->enclave_->Store<T>(cpu, addr, value);
    }

   private:
    MpxPolicy* policy_;
    Ptr base_;
  };

  Span OpenSpan(Cpu& cpu, Ptr base, uint64_t extent_bytes) {
    (void)cpu;
    (void)extent_bytes;
    return Span(this, base);
  }

  void Memcpy(Cpu& cpu, Ptr dst, Ptr src, uint32_t n) {
    if (n == 0) {
      return;
    }
    rt_.BndCheck(cpu, src.bounds, src.addr, n);
    rt_.BndCheck(cpu, dst.bounds, dst.addr, n);
    cpu.MemAccess(src.addr, n, AccessClass::kAppLoad);
    cpu.MemAccess(dst.addr, n, AccessClass::kAppStore);
    std::memmove(enclave_->space().HostPtr(dst.addr), enclave_->space().HostPtr(src.addr), n);
  }

  void Memset(Cpu& cpu, Ptr dst, uint8_t value, uint32_t n) {
    if (n == 0) {
      return;
    }
    rt_.BndCheck(cpu, dst.bounds, dst.addr, n);
    cpu.MemAccess(dst.addr, n, AccessClass::kAppStore);
    std::memset(enclave_->space().HostPtr(dst.addr), value, n);
  }

  // Fault campaigns: metadata flips land in a populated bounds-table entry.
  void AttachFaults(FaultInjector* faults) {
    rt_.set_track_entries(true);
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt_.CorruptBoundsTable(cpu, rng); });
  }

  // Optional harness hook (run.h): Table 3's bounds-table count rides in the
  // RunResult. Templated so this header needs no RunResult definition.
  template <typename Result>
  void CollectRunMetrics(Result& result) {
    result.mpx_bt_count = rt_.bt_count();
  }

  Enclave* enclave() { return enclave_; }
  MpxRuntime& runtime() { return rt_; }

 private:
  Enclave* enclave_;
  Heap* heap_;
  MpxRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_MPX_MPX_POLICY_H_
