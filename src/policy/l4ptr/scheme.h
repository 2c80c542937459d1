// l4ptr: both bounds ride in the pointer's upper 32 bits, so checks are
// register-only (no LB footer load) while pointer arithmetic and allocation
// pay for the power-of-two encoding. As for SGXBounds, the tag rides in the
// 64-bit pointer slot and the SS4.4 optimizations apply. No in-memory
// metadata exists, so fault campaigns register no corruptor.
//
// The whole scheme lives in this directory; the rest of the repo sees it
// only through the registry (scheme_list.h is the single registration line).

#ifndef SGXBOUNDS_SRC_POLICY_L4PTR_SCHEME_H_
#define SGXBOUNDS_SRC_POLICY_L4PTR_SCHEME_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/checked_policy.h"
#include "src/policy/l4ptr/l4ptr_runtime.h"

namespace sgxb {

struct L4PtrScheme {
  static constexpr PolicyKind kKind = PolicyKind::kL4Ptr;
  static constexpr bool kOptimizesChecks = true;
  static const SchemeDescriptor& Descriptor();

  using Ptr = L4Ptr;

  L4PtrScheme(Enclave* enclave, Heap* heap, const PolicyOptions& options) : rt(enclave, heap) {
    (void)options;
  }

  static uint32_t Addr(Ptr p) { return L4Addr(p); }
  static Ptr Add(Ptr p, int64_t delta) { return L4Add(p, delta); }

  ResolvedAccess Resolve(Cpu& cpu, Ptr p, uint32_t bytes, AccessType type) {
    return ResolvedAccess{rt.CheckAccess(cpu, p, bytes, type)};
  }
  void CheckRange(Cpu& cpu, Ptr p, uint64_t extent) { rt.CheckRange(cpu, p, extent); }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return rt.Malloc(cpu, size); }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return rt.MallocAligned(cpu, size, align);
  }
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) { return rt.Calloc(cpu, count, elem); }
  void Free(Cpu& cpu, Ptr p) { rt.Free(cpu, p); }
  Ptr PtrAdd(Cpu& cpu, Ptr p, int64_t delta) { return rt.PtrAdd(cpu, p, delta); }

  // IR lowering: the shared tagged-pointer lowering. Every allocation pads
  // to a power of two >= kL4Granule, which is the in-field elision floor.
  static CheckSchemeLowering IrLowering() { return TaggedSchemeCheckLowering(kL4Granule); }

  // RIPE: a carved stack/bss/data object is tagged in place, padded to a
  // power of two on a 32-byte base.
  Ptr RegisterObject(Cpu& cpu, uint32_t addr, uint32_t size) {
    return rt.SpecifyBounds(cpu, addr, size);
  }
  static constexpr uint32_t kCarveAlign = kL4Granule;
  static uint32_t CarveFootprint(uint32_t size) { return L4PaddedSize(size); }

  L4PtrRuntime rt;
};

using L4PtrPolicy = CheckedPolicy<L4PtrScheme>;

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_L4PTR_SCHEME_H_
