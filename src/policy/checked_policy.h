// CheckedPolicy<Scheme>: the one workload policy, instantiated once per
// registered scheme (policy.h describes the Scheme surface).
//
// Every access follows one pattern - resolve (check) the pointer, then move
// the data - so the bodies live here once and a scheme only says how its
// pointers are represented and resolved. Scheme calls are static (no virtual
// dispatch) and the access members are forced inline, so each instantiation
// compiles to the same code as a hand-written policy class.

#ifndef SGXBOUNDS_SRC_POLICY_CHECKED_POLICY_H_
#define SGXBOUNDS_SRC_POLICY_CHECKED_POLICY_H_

#include <cstring>
#include <type_traits>

#include "src/fault/fault.h"
#include "src/policy/policy.h"
#include "src/policy/registry.h"

namespace sgxb {

template <typename Scheme>
class CheckedPolicy {
 public:
  // The scheme struct itself, for RIPE and IR lowering, which use it
  // without the policy wrapper.
  using SchemeType = Scheme;
  using Ptr = typename Scheme::Ptr;
  static constexpr PolicyKind kKind = Scheme::kKind;

  // Registry entry (defined in the scheme's scheme.cc).
  static const SchemeDescriptor& Descriptor() { return Scheme::Descriptor(); }

  CheckedPolicy(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : enclave_(enclave), scheme_(enclave, heap, options), options_(options) {}

  Ptr Malloc(Cpu& cpu, uint32_t size) { return scheme_.Malloc(cpu, size); }

  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return scheme_.AlignedAlloc(cpu, size, align);
  }

  // Default: malloc, then zero the block as one application store.
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) {
    if constexpr (requires { scheme_.Calloc(cpu, count, elem); }) {
      return scheme_.Calloc(cpu, count, elem);
    } else {
      const uint32_t total = CallocBytes(count, elem);
      const Ptr p = Malloc(cpu, total);
      std::memset(enclave_->space().HostPtr(Scheme::Addr(p)), 0, total);
      cpu.MemAccess(Scheme::Addr(p), total, AccessClass::kAppStore);
      return p;
    }
  }

  void Free(Cpu& cpu, Ptr p) { scheme_.Free(cpu, p); }

  // Pointer arithmetic. Default: one ALU op; tagged schemes charge their
  // own instrumented add.
  Ptr Offset(Cpu& cpu, Ptr p, int64_t delta) {
    if constexpr (requires { scheme_.PtrAdd(cpu, p, delta); }) {
      return scheme_.PtrAdd(cpu, p, delta);
    } else {
      cpu.Alu(1);
      return Scheme::Add(p, delta);
    }
  }

  uint32_t AddrOf(Ptr p) const { return Scheme::Addr(p); }

  template <typename T>
  [[gnu::always_inline]] T Load(Cpu& cpu, Ptr p) {
    const ResolvedAccess r = scheme_.Resolve(cpu, p, sizeof(T), AccessType::kRead);
    if (r.zero_fill) {
      return T{};
    }
    return enclave_->Load<T>(cpu, r.addr);
  }

  template <typename T>
  [[gnu::always_inline]] void Store(Cpu& cpu, Ptr p, T value) {
    const ResolvedAccess r = scheme_.Resolve(cpu, p, sizeof(T), AccessType::kWrite);
    enclave_->Store<T>(cpu, r.addr, value);
  }

  // Checked access at a dynamic offset (a[i] where no optimization applies):
  // the addressing add, then the full check.
  template <typename T>
  [[gnu::always_inline]] T LoadAt(Cpu& cpu, Ptr p, uint64_t off) {
    cpu.Alu(1);
    return Load<T>(cpu, Scheme::Add(p, static_cast<int64_t>(off)));
  }

  template <typename T>
  [[gnu::always_inline]] void StoreAt(Cpu& cpu, Ptr p, uint64_t off, T value) {
    cpu.Alu(1);
    Store<T>(cpu, Scheme::Add(p, static_cast<int64_t>(off)), value);
  }

  // Field access at a constant offset: the SS4.4 "safe memory accesses"
  // point. With elision on, the compiler proved the offset in bounds and
  // emits a raw access.
  template <typename T>
  [[gnu::always_inline]] T LoadField(Cpu& cpu, Ptr p, uint32_t off) {
    return LoadOff<T>(cpu, p, off, options_.opt_safe_elision);
  }

  template <typename T>
  [[gnu::always_inline]] void StoreField(Cpu& cpu, Ptr p, uint32_t off, T value) {
    StoreOff<T>(cpu, p, off, value, options_.opt_safe_elision);
  }

  // Pointer-in-memory: a checked 8-byte slot access. Tagged schemes carry
  // their metadata in the slot word; MPX adds bndldx/bndstx around it.
  Ptr LoadPtr(Cpu& cpu, Ptr slot) {
    const ResolvedAccess r = scheme_.Resolve(cpu, slot, kPtrSlotBytes, AccessType::kRead);
    const uint64_t raw = r.zero_fill ? 0 : enclave_->Load<uint64_t>(cpu, r.addr);
    const Ptr value = FromSlot(raw);
    if constexpr (requires { scheme_.OnPtrLoad(cpu, r.addr, value); }) {
      return scheme_.OnPtrLoad(cpu, r.addr, value);
    } else {
      return value;
    }
  }

  void StorePtr(Cpu& cpu, Ptr slot, Ptr value) {
    const ResolvedAccess r = scheme_.Resolve(cpu, slot, kPtrSlotBytes, AccessType::kWrite);
    enclave_->Store<uint64_t>(cpu, r.addr, ToSlot(value));
    if constexpr (requires { scheme_.OnPtrStore(cpu, r.addr, value); }) {
      scheme_.OnPtrStore(cpu, r.addr, value);
    }
  }

  // Monotone-loop access: the SS4.4 "hoisting checks out of loops" point.
  // With hoisting on, one range check covers the extent and the body runs
  // unchecked; otherwise every access pays the full check.
  class Span {
   public:
    Span(CheckedPolicy* policy, Ptr base, bool hoisted)
        : policy_(policy), base_(base), hoisted_(hoisted) {}

    template <typename T>
    [[gnu::always_inline]] T Load(Cpu& cpu, uint64_t byte_off) {
      return policy_->template LoadOff<T>(cpu, base_, static_cast<int64_t>(byte_off), hoisted_);
    }

    template <typename T>
    [[gnu::always_inline]] void Store(Cpu& cpu, uint64_t byte_off, T value) {
      policy_->template StoreOff<T>(cpu, base_, static_cast<int64_t>(byte_off), value,
                                    hoisted_);
    }

   private:
    CheckedPolicy* policy_;
    Ptr base_;
    bool hoisted_;
  };

  Span OpenSpan(Cpu& cpu, Ptr base, uint64_t extent_bytes) {
    if constexpr (Scheme::kOptimizesChecks) {
      if (options_.opt_hoist_checks) {
        scheme_.CheckRange(cpu, base, extent_bytes);
        return Span(this, base, /*hoisted=*/true);
      }
    }
    return Span(this, base, /*hoisted=*/false);
  }

  // libc-wrapper semantics: check both ranges once, then move in bulk.
  void Memcpy(Cpu& cpu, Ptr dst, Ptr src, uint32_t n) {
    if (n == 0) {
      return;
    }
    const ResolvedAccess rs = scheme_.Resolve(cpu, src, n, AccessType::kRead);
    const ResolvedAccess rd = scheme_.Resolve(cpu, dst, n, AccessType::kWrite);
    cpu.MemAccess(rs.addr, n, AccessClass::kAppLoad);
    cpu.MemAccess(rd.addr, n, AccessClass::kAppStore);
    std::memmove(enclave_->space().HostPtr(rd.addr), enclave_->space().HostPtr(rs.addr), n);
  }

  void Memset(Cpu& cpu, Ptr dst, uint8_t value, uint32_t n) {
    if (n == 0) {
      return;
    }
    const ResolvedAccess rd = scheme_.Resolve(cpu, dst, n, AccessType::kWrite);
    cpu.MemAccess(rd.addr, n, AccessClass::kAppStore);
    std::memset(enclave_->space().HostPtr(rd.addr), value, n);
  }

  // Fault campaigns: schemes with in-memory metadata register a corruptor;
  // the others leave kMetadataFlip events to be counted as skipped.
  void AttachFaults(FaultInjector* faults) {
    if constexpr (requires { scheme_.AttachFaults(faults); }) {
      scheme_.AttachFaults(faults);
    }
  }

  // Optional harness hook (run.h): scheme-specific RunResult metrics.
  template <typename Result>
    requires requires(Scheme& s, Result& r) { s.CollectRunMetrics(r); }
  void CollectRunMetrics(Result& result) {
    scheme_.CollectRunMetrics(result);
  }

  Enclave* enclave() { return enclave_; }

  auto& runtime()
    requires requires(Scheme& s) { s.rt; }
  {
    return scheme_.rt;
  }

 private:
  // The elision/hoisting decision shared by fields and spans. Only schemes
  // that honour the SS4.4 switches (kOptimizesChecks) take the raw path; for
  // them a checked access charges no addressing ALU op, while the other
  // schemes charge one on every such access.
  template <typename T>
  [[gnu::always_inline]] T LoadOff(Cpu& cpu, Ptr p, int64_t off, bool unchecked) {
    if (Scheme::kOptimizesChecks && unchecked) {
      cpu.Alu(1);
      return enclave_->Load<T>(cpu, Scheme::Addr(p) + static_cast<uint32_t>(off));
    }
    if constexpr (!Scheme::kOptimizesChecks) {
      cpu.Alu(1);
    }
    return Load<T>(cpu, Scheme::Add(p, off));
  }

  template <typename T>
  [[gnu::always_inline]] void StoreOff(Cpu& cpu, Ptr p, int64_t off, T value, bool unchecked) {
    if (Scheme::kOptimizesChecks && unchecked) {
      cpu.Alu(1);
      enclave_->Store<T>(cpu, Scheme::Addr(p) + static_cast<uint32_t>(off), value);
      return;
    }
    if constexpr (!Scheme::kOptimizesChecks) {
      cpu.Alu(1);
    }
    Store<T>(cpu, Scheme::Add(p, off), value);
  }

  // Pointer <-> 8-byte slot word: tagged pointers are the word itself,
  // struct pointers store their `addr` (and, for MPX, load with INIT bounds
  // until bndldx fills them in).
  static uint64_t ToSlot(Ptr p) {
    if constexpr (std::is_integral_v<Ptr>) {
      return p;
    } else {
      return Scheme::Addr(p);
    }
  }

  static Ptr FromSlot(uint64_t raw) {
    if constexpr (std::is_integral_v<Ptr>) {
      return raw;
    } else {
      Ptr p{};
      p.addr = static_cast<uint32_t>(raw);
      return p;
    }
  }

  Enclave* enclave_;
  Scheme scheme_;
  PolicyOptions options_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_CHECKED_POLICY_H_
