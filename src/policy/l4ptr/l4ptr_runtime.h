// L4 Pointer-style runtime: both bounds live in the unused upper 32 bits of
// the pointer itself, so a bounds check needs NO metadata load at all.
//
// This is the fifth scheme plugged into the policy registry - implemented
// entirely under src/policy/l4ptr/ to prove the registry's "one directory,
// one registration line" claim. Encoding of the upper-32-bit tag:
//
//     [ e:5 | ub_g:27 ]      UB = ub_g * 32   (27-bit granule count x 32 B
//                                              spans the full 4 GiB space)
//                            size = 2^e       (e in [5, 31])
//                            LB = UB - 2^e
//
// Every allocation is padded to a power of two (>= 32 B) and based on a
// 32-byte boundary, so UB is granule-aligned and LB lands exactly on the
// object base. The trade against SGXBounds (SS3.2): checks lose the LB
// footer load (the metadata access that dominates SGXBounds' overhead) but
// pointer arithmetic must preserve a wider tag (3 ALU vs 2) and every
// object pays power-of-two internal fragmentation. A zero tag means an
// untagged pointer of uninstrumented origin and passes unchecked, exactly
// like SGXBounds' UB == 0 convention.
//
// Violations raise TrapKind::kPolicyViolation (the generic trap kind for
// registry-plugged schemes); there is no boundless-memory mode and no
// in-memory metadata for fault campaigns to flip.

#ifndef SGXBOUNDS_SRC_POLICY_L4PTR_L4PTR_RUNTIME_H_
#define SGXBOUNDS_SRC_POLICY_L4PTR_L4PTR_RUNTIME_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "src/enclave/enclave.h"
#include "src/ir/scheme_rt.h"
#include "src/runtime/heap.h"
#include "src/runtime/stack.h"
#include "src/sgxbounds/metadata.h"

namespace sgxb {

// A tagged l4ptr pointer: [e:5 | ub_g:27 | addr:32].
using L4Ptr = uint64_t;

inline constexpr uint32_t kL4Granule = 32;

inline constexpr uint32_t L4Addr(L4Ptr p) { return static_cast<uint32_t>(p); }
inline constexpr uint32_t L4TagOf(L4Ptr p) { return static_cast<uint32_t>(p >> 32); }
inline constexpr uint32_t L4Ub(uint32_t tag) { return (tag & 0x07ffffffu) * kL4Granule; }
inline constexpr uint32_t L4SizeLog2(uint32_t tag) { return tag >> 27; }
inline constexpr uint32_t L4Lb(uint32_t tag) {
  return L4Ub(tag) - (1u << L4SizeLog2(tag));
}

inline constexpr L4Ptr L4Encode(uint32_t addr, uint32_t ub, uint32_t log2_size) {
  const uint64_t tag = (static_cast<uint64_t>(log2_size) << 27) |
                       (static_cast<uint64_t>(ub) / kL4Granule);
  return (tag << 32) | addr;
}

// Tag-preserving pointer arithmetic (the uop kMaskPtr form works unchanged:
// upper 32 bits from the base, low 32 from the arithmetic result).
inline constexpr L4Ptr L4Add(L4Ptr p, int64_t delta) {
  return (p & 0xffffffff00000000ULL) |
         ((p + static_cast<uint64_t>(delta)) & 0xffffffffULL);
}

// Bytes one object of `size` occupies: padded to a power of two >= 32.
inline constexpr uint32_t L4PaddedSize(uint32_t size) {
  return size <= kL4Granule ? kL4Granule : std::bit_ceil(size);
}

struct L4PtrStats {
  uint64_t objects_created = 0;
  uint64_t objects_freed = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;
};

class L4PtrRuntime final : public IrSchemeRuntime {
 public:
  L4PtrRuntime(Enclave* enclave, Heap* heap) : enclave_(enclave), heap_(heap) {}

  // --- Object lifecycle -----------------------------------------------------

  // Tags caller-owned storage at [base, base + L4PaddedSize(size)); base must
  // be 32-byte aligned (stack/bss/data objects carved by the caller).
  L4Ptr SpecifyBounds(Cpu& cpu, uint32_t base, uint32_t size) {
    const uint32_t padded = L4PaddedSize(size);
    cpu.Alu(2);  // compose the tag - pure register arithmetic, no footer write
    ++stats_.objects_created;
    return L4Encode(base, base + padded, Log2(padded));
  }

  L4Ptr Malloc(Cpu& cpu, uint32_t size) {
    const uint32_t padded = L4PaddedSize(size);
    const uint32_t base = heap_->Alloc(cpu, padded, kL4Granule);
    cpu.Alu(2);
    ++stats_.objects_created;
    return L4Encode(base, base + padded, Log2(padded));
  }

  L4Ptr MallocAligned(Cpu& cpu, uint32_t size, uint32_t align) {
    const uint32_t padded = L4PaddedSize(size);
    const uint32_t eff_align =
        align <= kL4Granule ? kL4Granule : std::bit_ceil(align);
    const uint32_t base = heap_->Alloc(cpu, padded, eff_align);
    cpu.Alu(2);
    ++stats_.objects_created;
    return L4Encode(base, base + padded, Log2(padded));
  }

  L4Ptr Calloc(Cpu& cpu, uint32_t count, uint32_t elem_size) {
    const uint32_t bytes = count * elem_size;
    const L4Ptr p = Malloc(cpu, bytes);
    if (bytes > 0) {
      cpu.MemAccess(L4Addr(p), bytes, AccessClass::kAppStore);
      std::memset(enclave_->space().HostPtr(L4Addr(p)), 0, bytes);
    }
    return p;
  }

  void Free(Cpu& cpu, L4Ptr p) {
    const uint32_t tag = L4TagOf(p);
    cpu.Alu(2);  // decode the base from the tag
    heap_->Free(cpu, tag != 0 ? L4Lb(tag) : L4Addr(p));
    ++stats_.objects_freed;
  }

  // --- Instrumentation primitives --------------------------------------------

  // Pointer arithmetic must keep the 32-bit tag intact while wrapping the
  // low half: one ALU op wider than SGXBounds' masked add (SS3.2).
  L4Ptr PtrAdd(Cpu& cpu, L4Ptr p, int64_t delta) {
    cpu.Alu(3);
    return L4Add(p, delta);
  }

  // Full bounds check: both bounds decode from the tag in registers - no
  // metadata load. 4 ALU (extract addr/tag, decode UB, materialize LB,
  // compare setup) + 1 branch.
  uint32_t CheckAccess(Cpu& cpu, L4Ptr p, uint32_t size, AccessType type) {
    const uint32_t addr = L4Addr(p);
    const uint32_t tag = L4TagOf(p);
    if (tag == 0) {
      return addr;  // untagged: uninstrumented origin, no bounds known
    }
    cpu.Alu(2);
    ++stats_.checks;
    cpu.CountBoundsCheck();
    cpu.Alu(2);
    cpu.Branch();
    const uint32_t ub = L4Ub(tag);
    const uint32_t lb = ub - (1u << L4SizeLog2(tag));
    if (addr < lb || static_cast<uint64_t>(addr) + size > ub) {
      Violation(cpu, addr, type);
    }
    return addr;
  }

  // Hoisted range check: verifies [p, p + extent) once; loop bodies then
  // access the span unchecked.
  void CheckRange(Cpu& cpu, L4Ptr p, uint64_t extent_bytes) {
    const uint32_t addr = L4Addr(p);
    const uint32_t tag = L4TagOf(p);
    if (tag == 0) {
      return;
    }
    cpu.Alu(2);
    ++stats_.checks;
    cpu.CountBoundsCheck();
    cpu.Alu(2);
    cpu.Branch();
    const uint32_t ub = L4Ub(tag);
    const uint32_t lb = ub - (1u << L4SizeLog2(tag));
    if (addr < lb || static_cast<uint64_t>(addr) + extent_bytes > ub) {
      Violation(cpu, addr, AccessType::kReadWrite);
    }
  }

  // --- IrSchemeRuntime (the IR pipeline's generic scheme hooks) ---------------

  uint64_t IrAlloca(Cpu& cpu, StackAllocator& stack, uint32_t bytes) override {
    const uint32_t base = stack.Alloca(cpu, L4PaddedSize(bytes), kL4Granule);
    return SpecifyBounds(cpu, base, bytes);
  }

  uint64_t IrMalloc(Cpu& cpu, uint32_t bytes) override { return Malloc(cpu, bytes); }

  void IrFree(Cpu& cpu, uint64_t ptr) override { Free(cpu, ptr); }

  void IrCheck(Cpu& cpu, uint64_t ptr, uint32_t bytes, AccessType type) override {
    CheckAccess(cpu, ptr, bytes, type);
  }

  void IrCheckRange(Cpu& cpu, uint64_t ptr, uint64_t extent) override {
    CheckRange(cpu, ptr, extent);
  }

  Enclave* enclave() { return enclave_; }
  const L4PtrStats& stats() const { return stats_; }

 private:
  static uint32_t Log2(uint32_t pow2) {
    return 31u - static_cast<uint32_t>(std::countl_zero(pow2));
  }

  [[noreturn]] void Violation(Cpu& cpu, uint32_t addr, AccessType type) {
    ++stats_.violations;
    cpu.CountBoundsViolation();
    throw SimTrap(TrapKind::kPolicyViolation, addr,
                  type == AccessType::kWrite ? "l4ptr: out-of-bounds write"
                                             : "l4ptr: out-of-bounds access");
  }

  Enclave* enclave_;
  Heap* heap_;
  L4PtrStats stats_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_L4PTR_L4PTR_RUNTIME_H_
