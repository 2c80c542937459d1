// ShadowBound-style scheme: bounds live in 8-byte-granule shadow memory as
// {distance-to-start, distance-to-end} pairs, so a check is one dependent
// shadow load (both bounds reconstructed from it) instead of SGXBounds'
// pointer decode + LB footer load, and free() clears the entries - adding
// use-after-free detection the paper's three schemes lack. The anchor rides
// in the 64-bit pointer slot and the SS4.4 optimizations apply; the scheme's
// registry defaults additionally switch on the three new pipeline passes
// (redundant / pattern-loop / in-field elision).
//
// The whole scheme lives in this directory; the rest of the repo sees it
// only through the registry (scheme_list.h is the single registration line).

#ifndef SGXBOUNDS_SRC_POLICY_SHADOW_SCHEME_H_
#define SGXBOUNDS_SRC_POLICY_SHADOW_SCHEME_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/checked_policy.h"
#include "src/policy/shadow/shadow_runtime.h"

namespace sgxb {

struct ShadowScheme {
  static constexpr PolicyKind kKind = PolicyKind::kShadow;
  static constexpr bool kOptimizesChecks = true;
  static const SchemeDescriptor& Descriptor();

  using Ptr = ShadowPtr;

  ShadowScheme(Enclave* enclave, Heap* heap, const PolicyOptions& options) : rt(enclave, heap) {
    (void)options;
  }

  static uint32_t Addr(Ptr p) { return ShAddr(p); }
  static Ptr Add(Ptr p, int64_t delta) { return ShAdd(p, delta); }

  // Forced inline like the check it wraps: GCC otherwise keeps this
  // wrapper out of line.
  [[gnu::always_inline]] ResolvedAccess Resolve(Cpu& cpu, Ptr p, uint32_t bytes,
                                                AccessType type) {
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

  // IR lowering: the shared tagged-pointer lowering. The 8-byte granule is
  // the in-field elision floor; which passes run comes from PolicyOptions
  // (this scheme's registry defaults switch on all five).
  static CheckSchemeLowering IrLowering() { return TaggedSchemeCheckLowering(kShadowGranule); }

  // RIPE: a carved stack/bss/data object gets shadow entries, padded only to
  // the 8-byte granule.
  Ptr RegisterObject(Cpu& cpu, uint32_t addr, uint32_t size) {
    return rt.SpecifyBounds(cpu, addr, size);
  }
  static constexpr uint32_t kCarveAlign = kShadowGranule;
  static uint32_t CarveFootprint(uint32_t size) { return ShFootprint(size); }

  // Shadow entries are in-memory metadata: the fault injector's
  // kMetadataFlip events hit them, like ASan's shadow bytes and MPX's
  // bounds tables.
  void AttachFaults(FaultInjector* faults) {
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt.CorruptShadowEntry(cpu, rng); });
  }

  ShadowRuntime rt;
};

using ShadowPolicy = CheckedPolicy<ShadowScheme>;

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SHADOW_SCHEME_H_
