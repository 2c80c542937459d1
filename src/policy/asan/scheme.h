// AddressSanitizer: raw pointers, a shadow-memory check before every access,
// redzone-padded allocation, quarantined frees. ASan has no static in-bounds
// proof for heap objects and no per-object bound to hoist a check against,
// so field and loop accesses pay the per-access shadow load - the locality
// cost the paper measures on matrixmul (SS6.4).

#ifndef SGXBOUNDS_SRC_POLICY_ASAN_SCHEME_H_
#define SGXBOUNDS_SRC_POLICY_ASAN_SCHEME_H_

#include "src/asan/asan_runtime.h"
#include "src/ir/opt/pipeline.h"
#include "src/policy/checked_policy.h"

namespace sgxb {

struct AsanScheme {
  static constexpr PolicyKind kKind = PolicyKind::kAsan;
  static constexpr bool kOptimizesChecks = false;
  static const SchemeDescriptor& Descriptor();

  struct Ptr {
    uint32_t addr = 0;
  };

  AsanScheme(Enclave* enclave, Heap* heap, const PolicyOptions& options) : rt(enclave, heap) {
    (void)options;
  }

  static uint32_t Addr(Ptr p) { return p.addr; }
  static Ptr Add(Ptr p, int64_t delta) { return Ptr{static_cast<uint32_t>(p.addr + delta)}; }

  ResolvedAccess Resolve(Cpu& cpu, Ptr p, uint32_t bytes, AccessType type) {
    rt.CheckAccess(cpu, p.addr, bytes, /*is_write=*/type == AccessType::kWrite);
    return ResolvedAccess{p.addr};
  }

  Ptr Malloc(Cpu& cpu, uint32_t size) { return Ptr{rt.Malloc(cpu, size)}; }
  // The interceptor serves aligned requests from the redzone allocator;
  // alignment beyond the redzone granularity is not preserved (as for pool
  // allocators).
  Ptr AlignedAlloc(Cpu& cpu, uint32_t size, uint32_t align) {
    (void)align;
    return Malloc(cpu, size);
  }
  void Free(Cpu& cpu, Ptr p) { rt.Free(cpu, p.addr); }

  // IR lowering: a shadow check before every access (the paper's baseline
  // tooling); only redundant-check elimination is legal on top.
  static CheckSchemeLowering IrLowering() { return AsanCheckLowering(); }

  // RIPE: stack/global instrumentation separates carved objects with a
  // 32-byte redzone, poisoned here.
  Ptr RegisterObject(Cpu& cpu, uint32_t addr, uint32_t size) {
    rt.RegisterObject(cpu, addr, size, AsanRuntime::kShadowGlobalRedzone);
    return Ptr{addr};
  }
  static uint32_t CarveFootprint(uint32_t size) { return size + 32; }

  // Fault campaigns: metadata flips land in the shadow memory.
  void AttachFaults(FaultInjector* faults) {
    faults->RegisterMetadataCorruptor(
        [this](Cpu& cpu, Rng& rng) { return rt.CorruptShadow(cpu, rng); });
  }

  AsanRuntime rt;
};

using AsanPolicy = CheckedPolicy<AsanScheme>;

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_ASAN_SCHEME_H_
