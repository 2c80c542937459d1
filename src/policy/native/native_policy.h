// The uninstrumented baseline ("SGX" bars in the paper's figures): plain
// allocation and direct accesses, charged only for the application's own
// traffic and addressing arithmetic.

#ifndef SGXBOUNDS_SRC_POLICY_NATIVE_NATIVE_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_NATIVE_NATIVE_POLICY_H_

#include "src/fault/fault.h"
#include "src/policy/policy.h"
#include "src/policy/registry.h"
#include "src/runtime/heap.h"

namespace sgxb {

class NativePolicy {
 public:
  static constexpr PolicyKind kKind = PolicyKind::kNative;

  // Registry entry (defined in this scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor();

  struct Ptr {
    uint32_t addr = 0;
  };

  NativePolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : enclave_(enclave), heap_(heap) {
    (void)options;
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return Ptr{heap_->Alloc(cpu, size)}; }

  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return Ptr{heap_->Alloc(cpu, size, align)};
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
    return Ptr{static_cast<uint32_t>(p.addr + delta)};
  }

  uint32_t AddrOf(Ptr p) const { return p.addr; }
  static Ptr FromAddr(uint32_t addr) { return Ptr{addr}; }

  template <typename T>
  T Load(Cpu& cpu, Ptr p) {
    return enclave_->Load<T>(cpu, p.addr);
  }

  template <typename T>
  void Store(Cpu& cpu, Ptr p, T value) {
    enclave_->Store<T>(cpu, p.addr, value);
  }

  // Checked access at a dynamic offset (the common a[i] case where no
  // optimization applies). For the native build this is just addressing.
  template <typename T>
  T LoadAt(Cpu& cpu, Ptr p, uint64_t off) {
    cpu.Alu(1);
    return enclave_->Load<T>(cpu, p.addr + static_cast<uint32_t>(off));
  }

  template <typename T>
  void StoreAt(Cpu& cpu, Ptr p, uint64_t off, T value) {
    cpu.Alu(1);
    enclave_->Store<T>(cpu, p.addr + static_cast<uint32_t>(off), value);
  }

  template <typename T>
  T LoadField(Cpu& cpu, Ptr p, uint32_t off) {
    cpu.Alu(1);
    return enclave_->Load<T>(cpu, p.addr + off);
  }

  template <typename T>
  void StoreField(Cpu& cpu, Ptr p, uint32_t off, T value) {
    cpu.Alu(1);
    enclave_->Store<T>(cpu, p.addr + off, value);
  }

  Ptr LoadPtr(Cpu& cpu, Ptr slot) {
    const uint64_t raw = enclave_->Load<uint64_t>(cpu, slot.addr);
    return Ptr{static_cast<uint32_t>(raw)};
  }

  void StorePtr(Cpu& cpu, Ptr slot, Ptr value) {
    enclave_->Store<uint64_t>(cpu, slot.addr, static_cast<uint64_t>(value.addr));
  }

  // Loop span: direct unchecked access.
  class Span {
   public:
    Span(NativePolicy* policy, Ptr base) : policy_(policy), base_(base.addr) {}

    template <typename T>
    T Load(Cpu& cpu, uint64_t byte_off) {
      cpu.Alu(1);
      return policy_->enclave_->Load<T>(cpu, base_ + static_cast<uint32_t>(byte_off));
    }
    template <typename T>
    void Store(Cpu& cpu, uint64_t byte_off, T value) {
      cpu.Alu(1);
      policy_->enclave_->Store<T>(cpu, base_ + static_cast<uint32_t>(byte_off), value);
    }

   private:
    NativePolicy* policy_;
    uint32_t base_;
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
    cpu.MemAccess(src.addr, n, AccessClass::kAppLoad);
    cpu.MemAccess(dst.addr, n, AccessClass::kAppStore);
    std::memmove(enclave_->space().HostPtr(dst.addr), enclave_->space().HostPtr(src.addr), n);
  }

  void Memset(Cpu& cpu, Ptr dst, uint8_t value, uint32_t n) {
    if (n == 0) {
      return;
    }
    cpu.MemAccess(dst.addr, n, AccessClass::kAppStore);
    std::memset(enclave_->space().HostPtr(dst.addr), value, n);
  }

  // Fault campaigns: native code has no safety metadata to corrupt, so
  // kMetadataFlip events are counted as skipped.
  void AttachFaults(FaultInjector* faults) { (void)faults; }

  Enclave* enclave() { return enclave_; }
  Heap* heap() { return heap_; }

 private:
  Enclave* enclave_;
  Heap* heap_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_NATIVE_NATIVE_POLICY_H_
