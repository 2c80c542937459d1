// AddressSanitizer as a workload policy: raw pointers, shadow-memory check
// before every access, redzone-padded allocation, quarantined frees. Spans
// cannot hoist shadow checks (there is no per-object bound to compare
// against), so loop bodies pay the per-access shadow load - the locality
// cost the paper measures on matrixmul (SS6.4).

#ifndef SGXBOUNDS_SRC_POLICY_ASAN_ASAN_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_ASAN_ASAN_POLICY_H_

#include "src/asan/asan_runtime.h"
#include "src/fault/fault.h"
#include "src/policy/policy.h"
#include "src/policy/registry.h"

namespace sgxb {

class AsanPolicy {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kAsan;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  struct Ptr {
    uint32_t addr = 0;
  };

  AsanPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : enclave_(enclave), rt_(enclave, heap) {
    (void)options;
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return Ptr{rt_.Malloc(cpu, size)}; }

  // ASan's interceptor serves aligned requests from the redzone allocator;
  // alignment beyond the redzone granularity is not preserved (matches the
  // interceptor's behaviour for pool allocators).
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    (void)align;
    return Ptr{rt_.Malloc(cpu, size)};
  }

  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) {
    const uint32_t total = CallocBytes(count, elem);
    const Ptr p = Malloc(cpu, total);
    std::memset(enclave_->space().HostPtr(p.addr), 0, total);
    cpu.MemAccess(p.addr, total, AccessClass::kAppStore);
    return p;
  }

  void Free(Cpu& cpu, Ptr p) { rt_.Free(cpu, p.addr); }

  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) {
    cpu.Alu(1);
    return Ptr{static_cast<uint32_t>(p.addr + delta)};
  }

  uint32_t AddrOf(Ptr p) const { return p.addr; }
  static Ptr FromAddr(uint32_t addr) { return Ptr{addr}; }

  template <typename T>
  T Load(Cpu& cpu, Ptr p) {
    rt_.CheckAccess(cpu, p.addr, sizeof(T), /*is_write=*/false);
    return enclave_->Load<T>(cpu, p.addr);
  }

  template <typename T>
  void Store(Cpu& cpu, Ptr p, T value) {
    rt_.CheckAccess(cpu, p.addr, sizeof(T), /*is_write=*/true);
    enclave_->Store<T>(cpu, p.addr, value);
  }

  // Checked access at a dynamic offset: shadow check + load.
  template <typename T>
  T LoadAt(Cpu& cpu, Ptr p, uint64_t off) {
    cpu.Alu(1);
    return Load<T>(cpu, Ptr{p.addr + static_cast<uint32_t>(off)});
  }

  template <typename T>
  void StoreAt(Cpu& cpu, Ptr p, uint64_t off, T value) {
    cpu.Alu(1);
    Store<T>(cpu, Ptr{p.addr + static_cast<uint32_t>(off)}, value);
  }

  // ASan instruments field accesses too (it has no static in-bounds proof for
  // heap objects), so these are full checked accesses.
  template <typename T>
  T LoadField(Cpu& cpu, Ptr p, uint32_t off) {
    cpu.Alu(1);
    return Load<T>(cpu, Ptr{p.addr + off});
  }

  template <typename T>
  void StoreField(Cpu& cpu, Ptr p, uint32_t off, T value) {
    cpu.Alu(1);
    Store<T>(cpu, Ptr{p.addr + off}, value);
  }

  Ptr LoadPtr(Cpu& cpu, Ptr slot) {
    rt_.CheckAccess(cpu, slot.addr, kPtrSlotBytes, /*is_write=*/false);
    const uint64_t raw = enclave_->Load<uint64_t>(cpu, slot.addr);
    return Ptr{static_cast<uint32_t>(raw)};
  }

  void StorePtr(Cpu& cpu, Ptr slot, Ptr value) {
    rt_.CheckAccess(cpu, slot.addr, kPtrSlotBytes, /*is_write=*/true);
    enclave_->Store<uint64_t>(cpu, slot.addr, static_cast<uint64_t>(value.addr));
  }

  class Span {
   public:
    Span(AsanPolicy* policy, Ptr base) : policy_(policy), base_(base) {}

    template <typename T>
    T Load(Cpu& cpu, uint64_t byte_off) {
      cpu.Alu(1);
      return policy_->Load<T>(cpu, Ptr{base_.addr + static_cast<uint32_t>(byte_off)});
    }
    template <typename T>
    void Store(Cpu& cpu, uint64_t byte_off, T value) {
      cpu.Alu(1);
      policy_->Store<T>(cpu, Ptr{base_.addr + static_cast<uint32_t>(byte_off)}, value);
    }

   private:
    AsanPolicy* policy_;
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
    // ASan's interceptor checks both ranges (first+last granule fast path,
    // full poison scan), then copies.
    rt_.CheckAccess(cpu, src.addr, n, /*is_write=*/false);
    rt_.CheckAccess(cpu, dst.addr, n, /*is_write=*/true);
    cpu.MemAccess(src.addr, n, AccessClass::kAppLoad);
    cpu.MemAccess(dst.addr, n, AccessClass::kAppStore);
    std::memmove(enclave_->space().HostPtr(dst.addr), enclave_->space().HostPtr(src.addr), n);
  }

  void Memset(Cpu& cpu, Ptr dst, uint8_t value, uint32_t n) {
    if (n == 0) {
      return;
    }
    rt_.CheckAccess(cpu, dst.addr, n, /*is_write=*/true);
    cpu.MemAccess(dst.addr, n, AccessClass::kAppStore);
    std::memset(enclave_->space().HostPtr(dst.addr), value, n);
  }

  // Fault campaigns: metadata flips land in the shadow memory.
  void AttachFaults(FaultInjector* faults) {
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt_.CorruptShadow(cpu, rng); });
  }

  Enclave* enclave() { return enclave_; }
  AsanRuntime& runtime() { return rt_; }

 private:
  Enclave* enclave_;
  AsanRuntime rt_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_ASAN_ASAN_POLICY_H_
