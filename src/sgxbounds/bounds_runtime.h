// SGXBounds runtime (paper SS3.2, SS4).
//
// This is the run-time support library the paper's LLVM pass targets: object
// creation (`specify_bounds`, malloc/free wrappers), the bounds check
// inserted before each memory access, instrumented pointer arithmetic, and
// the out-of-bounds policy (fail-fast trap or boundless-memory redirect).
//
// Every primitive charges its simulated cost on the Cpu it runs on:
//   extract p/UB      2 ALU ops        (mask + shift)
//   LB load           1 metadata load  (at [UB], usually same line as object tail)
//   bounds compare    2 ALU + 1 branch
//   pointer add       2 ALU            (low-32 masking, SS3.2)
// so the hardened/native cycle ratio measured by the benchmarks reflects the
// real instrumentation profile.

#ifndef SGXBOUNDS_SRC_SGXBOUNDS_BOUNDS_RUNTIME_H_
#define SGXBOUNDS_SRC_SGXBOUNDS_BOUNDS_RUNTIME_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/ir/scheme_rt.h"
#include "src/runtime/heap.h"
#include "src/sgxbounds/boundless.h"
#include "src/sgxbounds/metadata.h"
#include "src/sgxbounds/tagged_ptr.h"

namespace sgxb {

enum class OobPolicy : uint8_t {
  kFailFast,   // trap with TrapKind::kSgxBoundsViolation (default)
  kBoundless,  // redirect into the boundless-memory overlay (SS4.2)
};

// Where a checked access should actually be performed.
struct ResolvedAccess {
  uint32_t addr = 0;        // target address (undefined when zero_fill)
  bool zero_fill = false;   // load must be satisfied with zeros
  bool redirected = false;  // went through the boundless overlay
};

struct BoundsRuntimeStats {
  uint64_t objects_created = 0;
  uint64_t objects_freed = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;
};

class SgxBoundsRuntime final : public IrSchemeRuntime {
 public:
  // `registry` may be shared by several runtimes; nullptr means "LB only, no
  // hooks" (the common case).
  SgxBoundsRuntime(Enclave* enclave, Heap* heap, OobPolicy policy = OobPolicy::kFailFast,
                   MetadataRegistry* registry = nullptr);

  // --- Object lifecycle -----------------------------------------------------

  // malloc wrapper (SS3.2): allocates size + footer, writes LB, tags.
  TaggedPtr Malloc(Cpu& cpu, uint32_t size);
  // posix_memalign/mmap wrapper: aligned base + footer. Note the footer makes
  // page-multiple requests span one extra page - the Apache pool-allocator
  // artifact the paper reports in SS7.
  TaggedPtr MallocAligned(Cpu& cpu, uint32_t size, uint32_t align);
  TaggedPtr Calloc(Cpu& cpu, uint32_t count, uint32_t elem_size);
  void Free(Cpu& cpu, TaggedPtr tagged);

  // specify_bounds for globals/stack objects whose storage the caller owns.
  // The caller must have reserved FooterBytes() after `ub`.
  TaggedPtr SpecifyBounds(Cpu& cpu, uint32_t p, uint32_t ub, ObjKind kind);

  // Bytes of footer added to every object (4 for LB + registered extras).
  uint32_t FooterBytes() const;

  // --- Instrumentation primitives --------------------------------------------

  // Instrumented pointer arithmetic (SS3.2): low 32 bits only.
  TaggedPtr PtrAdd(Cpu& cpu, TaggedPtr tagged, int64_t delta) {
    cpu.Alu(2);
    return TaggedAdd(tagged, delta);
  }

  // Full bounds check for an access of `size` bytes. Untagged pointers
  // (UB == 0) pass unchecked, mirroring uninstrumented/NULL pointers.
  // Inline: this runs before every checked access, and the in-bounds path is
  // a handful of charges around the LB footer load.
  ResolvedAccess CheckAccess(Cpu& cpu, TaggedPtr tagged, uint32_t size, AccessType type) {
    const uint32_t p = ExtractPtr(tagged);
    const uint32_t ub = ExtractUb(tagged);
    if (ub == 0) {
      // Untagged pointer: no bounds known (uninstrumented origin).
      return ResolvedAccess{p, false, false};
    }
    cpu.Alu(2);  // extract p, UB
    ++stats_.checks;
    cpu.CountBoundsCheck();
    const uint32_t lb = LoadLb(cpu, ub);
    cpu.Alu(2);
    cpu.Branch();
    if (registry_->has_hooks()) {
      registry_->FireAccess(cpu, p, size, ub, type);
    }
    if (BoundsViolated(p, lb, ub, size)) {
      return HandleViolation(cpu, p, size, type);
    }
    return ResolvedAccess{p, false, false};
  }

  // Upper-bound-only check used after loop-hoisting has proven the lower
  // bound (SS4.4): no LB footer load, saving the metadata access.
  ResolvedAccess CheckAccessUpperOnly(Cpu& cpu, TaggedPtr tagged, uint32_t size,
                                      AccessType type) {
    const uint32_t p = ExtractPtr(tagged);
    const uint32_t ub = ExtractUb(tagged);
    if (ub == 0) {
      return ResolvedAccess{p, false, false};
    }
    cpu.Alu(2);
    ++stats_.checks;
    cpu.CountBoundsCheck();
    cpu.Alu(1);
    cpu.Branch();
    if (static_cast<uint64_t>(p) + size > ub) {
      return HandleViolation(cpu, p, size, type);
    }
    return ResolvedAccess{p, false, false};
  }

  // Hoisted range check (SS4.4): verifies [p, p + extent) once; the loop body
  // may then access the range unchecked.
  void CheckRange(Cpu& cpu, TaggedPtr tagged, uint64_t extent_bytes);

  // --- SS8 extension: bounds narrowing for intra-object overflows -------------
  //
  // The paper's future-work item: when the program takes the address of a
  // struct field, narrow the pointer's bounds to that field so an overflow
  // of an inner buffer cannot reach a sibling member (the 8 RIPE attacks all
  // three schemes miss in Table 4).
  //
  // The returned pointer's UB is the field's end. Because no LB footer
  // exists inside the object, accesses through a narrowed pointer must use
  // CheckAccessUpperOnly (IsNarrowed() distinguishes them): the dangerous
  // forward direction is fully checked; backward underflow detection would
  // need the extended per-field metadata the paper sketches in SS4.3.
  TaggedPtr NarrowBounds(Cpu& cpu, TaggedPtr tagged, uint32_t field_off,
                         uint32_t field_size);

  // True if `tagged` was produced by NarrowBounds (its UB does not carry an
  // LB footer). Implemented with a host-side set of narrowed UBs.
  bool IsNarrowed(TaggedPtr tagged) const {
    return narrowed_ubs_.count(ExtractUb(tagged)) != 0;
  }

  // Dispatching check: full check for regular pointers, UB-only for
  // narrowed ones.
  ResolvedAccess CheckAccessAuto(Cpu& cpu, TaggedPtr tagged, uint32_t size,
                                 AccessType type) {
    if (IsNarrowed(tagged)) {
      return CheckAccessUpperOnly(cpu, tagged, size, type);
    }
    return CheckAccess(cpu, tagged, size, type);
  }

  // --- Checked typed access (check + data movement) --------------------------

  template <typename T>
  T Load(Cpu& cpu, TaggedPtr tagged) {
    const ResolvedAccess r = CheckAccess(cpu, tagged, sizeof(T), AccessType::kRead);
    if (r.zero_fill) {
      return T{};
    }
    return enclave_->Load<T>(cpu, r.addr);
  }

  template <typename T>
  void Store(Cpu& cpu, TaggedPtr tagged, T value) {
    const ResolvedAccess r = CheckAccess(cpu, tagged, sizeof(T), AccessType::kWrite);
    enclave_->Store<T>(cpu, r.addr, value);
  }

  // --- IrSchemeRuntime (the IR lowering of the paper's pass, SS5.1) ---------

  uint64_t IrAlloca(Cpu& cpu, StackAllocator& stack, uint32_t bytes) override {
    const uint32_t base = stack.Alloca(cpu, bytes + FooterBytes());
    return SpecifyBounds(cpu, base, base + bytes, ObjKind::kStack);
  }

  uint64_t IrMalloc(Cpu& cpu, uint32_t bytes) override { return Malloc(cpu, bytes); }

  void IrFree(Cpu& cpu, uint64_t ptr) override { Free(cpu, ptr); }

  void IrCheck(Cpu& cpu, uint64_t ptr, uint32_t bytes, AccessType type) override {
    CheckAccess(cpu, ptr, bytes, type);
  }

  void IrCheckRange(Cpu& cpu, uint64_t ptr, uint64_t extent) override {
    CheckRange(cpu, ptr, extent);
  }

  // --- Accessors --------------------------------------------------------------

  // Loads the lower bound from the footer at `ub` (charged metadata load).
  uint32_t LoadLb(Cpu& cpu, uint32_t ub) {
    return enclave_->Load<uint32_t>(cpu, ub, AccessClass::kMetadataLoad);
  }

  // --- Fault campaigns (src/fault) -------------------------------------------

  // When object tracking is on, the runtime maintains a deterministic index
  // of live UB footers so a metadata corruptor can pick a victim
  // reproducibly. Off by default: normal runs pay nothing.
  void set_track_objects(bool on) { track_objects_ = on; }

  // Flips one RNG-chosen bit of one live object's LB footer (charged
  // metadata load + store). Returns false when no tracked object is live.
  bool CorruptLbFooter(Cpu& cpu, Rng& rng) {
    if (live_ubs_.empty()) {
      return false;
    }
    const uint32_t ub = live_ubs_[rng.NextBounded(live_ubs_.size())];
    const uint32_t lb = LoadLb(cpu, ub);
    const uint32_t flipped = lb ^ (1u << rng.NextBounded(32));
    enclave_->Store<uint32_t>(cpu, ub, flipped, AccessClass::kMetadataStore);
    return true;
  }

  Enclave* enclave() { return enclave_; }
  Heap* heap() { return heap_; }
  OobPolicy policy() const { return policy_; }
  void set_policy(OobPolicy policy) { policy_ = policy; }
  MetadataRegistry* registry() { return registry_; }
  BoundlessMemory& boundless() { return boundless_; }
  const BoundsRuntimeStats& stats() const { return stats_; }

 private:
  ResolvedAccess HandleViolation(Cpu& cpu, uint32_t p, uint32_t size, AccessType type);

  Enclave* enclave_;
  Heap* heap_;
  OobPolicy policy_;
  MetadataRegistry* registry_;
  MetadataRegistry default_registry_;
  BoundlessMemory boundless_;
  BoundsRuntimeStats stats_;
  std::set<uint32_t> narrowed_ubs_;
  // Live-object index for fault campaigns: vector for an O(1) deterministic
  // RNG pick, map for O(1) swap-erase on Free.
  bool track_objects_ = false;
  std::vector<uint32_t> live_ubs_;
  std::unordered_map<uint32_t, size_t> live_ub_index_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SGXBOUNDS_BOUNDS_RUNTIME_H_
