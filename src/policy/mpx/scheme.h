// Intel MPX: a pointer travels with its bounds "in a register" (part of Ptr);
// every access pays bndcl/bndcu; storing or loading a pointer through memory
// pays the bndstx/bndldx two-level table walk unless the 4-register file
// still holds that slot's bounds. Allocation itself is uninstrumented beyond
// bndmk (bounds live in the disjoint tables), and GCC's instrumentation has
// no elision or hoisting pass, so field and loop accesses pay the full check.

#ifndef SGXBOUNDS_SRC_POLICY_MPX_SCHEME_H_
#define SGXBOUNDS_SRC_POLICY_MPX_SCHEME_H_

#include "src/ir/opt/pipeline.h"
#include "src/mpx/mpx_runtime.h"
#include "src/policy/checked_policy.h"

namespace sgxb {

struct MpxScheme {
  static constexpr PolicyKind kKind = PolicyKind::kMpx;
  static constexpr bool kOptimizesChecks = false;
  static const SchemeDescriptor& Descriptor();

  struct Ptr {
    uint32_t addr = 0;
    MpxBounds bounds;  // INIT bounds for untagged pointers
  };

  MpxScheme(Enclave* enclave, Heap* heap, const PolicyOptions& options)
      : heap(heap), rt(enclave) {
    (void)options;
  }

  static uint32_t Addr(Ptr p) { return p.addr; }
  static Ptr Add(Ptr p, int64_t delta) {
    return Ptr{static_cast<uint32_t>(p.addr + delta), p.bounds};
  }

  ResolvedAccess Resolve(Cpu& cpu, Ptr p, uint32_t bytes, AccessType type) {
    (void)type;
    rt.BndCheck(cpu, p.bounds, p.addr, bytes);
    return ResolvedAccess{p.addr};
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) {
    const uint32_t addr = heap->Alloc(cpu, size);
    return Ptr{addr, rt.BndMk(cpu, addr, size)};
  }
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    const uint32_t addr = heap->Alloc(cpu, size, align);
    return Ptr{addr, rt.BndMk(cpu, addr, size)};
  }
  void Free(Cpu& cpu, Ptr p) { heap->Free(cpu, p.addr); }

  // bndldx: a loaded pointer's bounds come from the register file, else from
  // the bounds table (2 dependent metadata loads).
  Ptr OnPtrLoad(Cpu& cpu, uint32_t slot, Ptr value) {
    if (!rt.RegLookup(slot, &value.bounds)) {
      value.bounds = rt.BndLdx(cpu, slot, value.addr);
    }
    return value;
  }

  // bndstx: metadata store plus a possible bounds-table allocation.
  void OnPtrStore(Cpu& cpu, uint32_t slot, Ptr value) {
    rt.BndStx(cpu, slot, value.addr, value.bounds);
  }

  // Fault campaigns: metadata flips land in a populated bounds-table entry.
  void AttachFaults(FaultInjector* faults) {
    rt.set_track_entries(true);
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt.CorruptBoundsTable(cpu, rng); });
  }

  // IR lowering: bndcl/bndcu before every access, bndldx/bndstx at
  // pointer-in-memory sites; no elision or hoisting is legal.
  static CheckSchemeLowering IrLowering() { return MpxCheckLowering(); }

  // RIPE: bndmk on a carved stack/bss/data object. libc is not
  // instrumented (kUninstrumentedLibc): a copy never sees the bounds.
  Ptr RegisterObject(Cpu& cpu, uint32_t addr, uint32_t size) {
    return Ptr{addr, rt.BndMk(cpu, addr, size)};
  }
  static constexpr bool kUninstrumentedLibc = true;

  // Table 3's bounds-table count rides in the RunResult. Templated so this
  // header needs no RunResult definition.
  template <typename Result>
  void CollectRunMetrics(Result& result) {
    result.mpx_bt_count = rt.bt_count();
  }

  Heap* heap;
  MpxRuntime rt;
};

using MpxPolicy = CheckedPolicy<MpxScheme>;

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_MPX_SCHEME_H_
