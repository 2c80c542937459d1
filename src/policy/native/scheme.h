// The uninstrumented baseline ("SGX" bars in the paper's figures): plain
// allocation and direct accesses, charged only for the application's own
// traffic and addressing arithmetic. Resolve checks nothing, and native code
// has no safety metadata for fault campaigns to corrupt.

#ifndef SGXBOUNDS_SRC_POLICY_NATIVE_SCHEME_H_
#define SGXBOUNDS_SRC_POLICY_NATIVE_SCHEME_H_

#include "src/policy/checked_policy.h"
#include "src/runtime/heap.h"

namespace sgxb {

struct NativeScheme {
  static constexpr PolicyKind kKind = PolicyKind::kNative;
  static constexpr bool kOptimizesChecks = false;
  static const SchemeDescriptor& Descriptor();

  struct Ptr {
    uint32_t addr = 0;
  };

  NativeScheme(Enclave* enclave, Heap* heap, const PolicyOptions& options) : heap(heap) {
    (void)enclave;
    (void)options;
  }

  static uint32_t Addr(Ptr p) { return p.addr; }
  static Ptr Add(Ptr p, int64_t delta) { return Ptr{static_cast<uint32_t>(p.addr + delta)}; }

  static ResolvedAccess Resolve(Cpu& cpu, Ptr p, uint32_t bytes, AccessType type) {
    (void)cpu;
    (void)bytes;
    (void)type;
    return ResolvedAccess{p.addr};
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return Ptr{heap->Alloc(cpu, size)}; }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return Ptr{heap->Alloc(cpu, size, align)};
  }
  void Free(Cpu& cpu, Ptr p) { heap->Free(cpu, p.addr); }

  Heap* heap;
};

using NativePolicy = CheckedPolicy<NativeScheme>;

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_NATIVE_SCHEME_H_
