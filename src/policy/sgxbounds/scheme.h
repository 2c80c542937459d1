// SGXBounds: tagged pointers travel through the program and every access
// is bounds-checked against the LB footer (SS3.2). Pointer-in-memory needs
// nothing special - the tag rides in the 64-bit slot, so a plain 8-byte
// load/store moves pointer and bounds atomically (SS4.1). With the boundless
// overlay (SS4.2) an out-of-bounds load resolves to zero fill. The SS4.4
// optimizations apply: field elision and loop-check hoisting.

#ifndef SGXBOUNDS_SRC_POLICY_SGXBOUNDS_SCHEME_H_
#define SGXBOUNDS_SRC_POLICY_SGXBOUNDS_SCHEME_H_

#include "src/ir/opt/pipeline.h"
#include "src/policy/checked_policy.h"
#include "src/sgxbounds/bounds_runtime.h"

namespace sgxb {

struct SgxBoundsScheme {
  static constexpr PolicyKind kKind = PolicyKind::kSgxBounds;
  static constexpr bool kOptimizesChecks = true;
  static const SchemeDescriptor& Descriptor();

  using Ptr = TaggedPtr;

  SgxBoundsScheme(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : rt(enclave, heap, options.oob) {
    rt.boundless().set_exhaust_policy(options.overlay_exhaust);
  }

  static uint32_t Addr(Ptr p) { return ExtractPtr(p); }
  static Ptr Add(Ptr p, int64_t delta) { return TaggedAdd(p, delta); }

  ResolvedAccess Resolve(Cpu& cpu, Ptr p, uint32_t bytes, AccessType type) {
    return rt.CheckAccess(cpu, p, bytes, type);
  }
  void CheckRange(Cpu& cpu, Ptr p, uint64_t extent) { rt.CheckRange(cpu, p, extent); }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return rt.Malloc(cpu, size); }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    return rt.MallocAligned(cpu, size, align);
  }
  Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem) { return rt.Calloc(cpu, count, elem); }
  void Free(Cpu& cpu, Ptr p) { rt.Free(cpu, p); }
  Ptr PtrAdd(Cpu& cpu, Ptr p, int64_t delta) { return rt.PtrAdd(cpu, p, delta); }

  // IR lowering: the shared tagged-pointer lowering. LB/UB are exact (no
  // padding floor), so in-field elision is not legal here.
  static CheckSchemeLowering IrLowering() { return TaggedSchemeCheckLowering(0); }

  // RIPE: a carved stack/bss/data object gets its LB footer in the
  // FooterBytes() reserved after it; libc copies go through the fortified
  // wrappers (SS5.1), which refuse an overflowing copy with EINVAL.
  Ptr RegisterObject(Cpu& cpu, uint32_t addr, uint32_t size) {
    return rt.SpecifyBounds(cpu, addr, addr + size, ObjKind::kGlobal);
  }
  uint32_t CarveFootprint(uint32_t size) const { return size + rt.FooterBytes(); }
  bool LibcCopy(Cpu& cpu, Ptr dst, const uint8_t* payload, uint32_t n);

  // SS8 extension (RIPE with narrowing): &obj.field narrowed to the field.
  // A narrowed UB carries no LB footer, so its accesses take the
  // upper-bound-only check.
  Ptr NarrowTo(Cpu& cpu, Ptr p, uint32_t offset, uint32_t len) {
    return rt.NarrowBounds(cpu, p, offset, len);
  }
  ResolvedAccess ResolveNarrowed(Cpu& cpu, Ptr p, uint32_t bytes, AccessType type) {
    return rt.CheckAccessAuto(cpu, p, bytes, type);
  }

  // Fault campaigns: metadata flips land in a live object's LB footer.
  void AttachFaults(FaultInjector* faults) {
    rt.set_track_objects(true);
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt.CorruptLbFooter(cpu, rng); });
  }

  SgxBoundsRuntime rt;
};

using SgxBoundsPolicy = CheckedPolicy<SgxBoundsScheme>;

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SGXBOUNDS_SCHEME_H_
