// ShadowBound-style runtime: packed {distance-to-start, distance-to-end}
// pairs in 8-byte-granule shadow memory (PAPERS.md: ShadowBound, 2024).
//
// This is the sixth scheme plugged into the policy registry, implemented
// entirely under src/policy/shadow/ and lowered through the scheme-generic
// check pipeline (src/ir/opt) with zero shadow-specific code in src/ir.
//
// Metadata layout. Every 8-byte granule of an allocated object owns one
// 4-byte shadow entry:
//
//     [ dist_start:16 | dist_end:16 ]   granule counts, so 16 bits span
//                                       512 KiB from each edge
//
// with LB = granule_base - dist_start*8 and UB = granule_base + dist_end*8.
// The pair makes a single dependent shadow load sufficient to reconstruct
// BOTH bounds at any granule of the object - ShadowBound's core trick - so
// a check is one metadata load + ALU + branch, where SGXBounds pays a
// pointer-tag decode + LB footer load and ASan learns only "addressable",
// not which object. 0xffff in either field is the large-object escape: the
// exact extent comes from a host-side side table (charged as an extra
// table-walk, the rare case). An all-zero entry means "no live object",
// which is what free() leaves behind - giving use-after-free detection for
// stale anchors, a capability none of the paper's three schemes claims.
//
// Pointers carry the allocation base ("anchor") in the unused upper 32 bits:
//
//     [ anchor:32 | addr:32 ]
//
// so provenance survives arbitrary pointer arithmetic with the same masked
// add SGXBounds uses (kMaskPtr works unchanged), and the check loads the
// shadow entry of the ANCHOR's granule - a pointer that walked into a
// neighboring object is still judged against the object it was derived
// from. A zero anchor marks an uninstrumented origin and passes unchecked
// (the UB == 0 convention of SGXBounds/l4ptr).
//
// Shadow space is NOT a flat 1/2-scale mirror: that would cost 2 GiB of the
// 4 GiB enclave space the 3 GiB heap already dominates. Instead, shadow
// tables are allocated on demand like MPX's bounds tables: one 4 MiB table
// per 8 MiB application region, found through a 2 KiB directory committed at
// startup. The scheme therefore shares MPX's address-space-pressure story
// (huge pointer-bearing heaps can exhaust the space) at 1/2 scale instead
// of MPX's 4x.
//
// Violations raise TrapKind::kPolicyViolation. Fault campaigns can flip
// shadow-entry bits (CorruptShadowEntry), which can both fabricate and mask
// violations - the conformance/fault batteries exercise this surface.

#ifndef SGXBOUNDS_SRC_POLICY_SHADOW_SHADOW_RUNTIME_H_
#define SGXBOUNDS_SRC_POLICY_SHADOW_SHADOW_RUNTIME_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/enclave/enclave.h"
#include "src/ir/scheme_rt.h"
#include "src/runtime/heap.h"
#include "src/runtime/stack.h"

namespace sgxb {

// A tagged shadow pointer: [anchor:32 | addr:32].
using ShadowPtr = uint64_t;

inline constexpr uint32_t kShadowGranule = 8;

inline constexpr uint32_t ShAddr(ShadowPtr p) { return static_cast<uint32_t>(p); }
inline constexpr uint32_t ShAnchor(ShadowPtr p) { return static_cast<uint32_t>(p >> 32); }
inline constexpr ShadowPtr ShEncode(uint32_t anchor, uint32_t addr) {
  return (static_cast<uint64_t>(anchor) << 32) | addr;
}

// Anchor-preserving pointer arithmetic (the uop kMaskPtr form works
// unchanged: upper 32 bits from the base, low 32 from the arithmetic).
inline constexpr ShadowPtr ShAdd(ShadowPtr p, int64_t delta) {
  return (p & 0xffffffff00000000ULL) |
         ((p + static_cast<uint64_t>(delta)) & 0xffffffffULL);
}

// Bytes one object occupies: rounded up to the 8-byte shadow granule.
inline constexpr uint32_t ShFootprint(uint32_t size) {
  return size <= kShadowGranule
             ? kShadowGranule
             : (size + kShadowGranule - 1) & ~(kShadowGranule - 1);
}

struct ShadowStats {
  uint64_t objects_created = 0;
  uint64_t objects_freed = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;
  uint64_t slow_path_checks = 0;  // large-object escape entries
  uint64_t tables_allocated = 0;
};

class ShadowRuntime final : public IrSchemeRuntime {
 public:
  ShadowRuntime(Enclave* enclave, Heap* heap) : enclave_(enclave), heap_(heap) {
    // 2 KiB directory (one 4-byte slot per 8 MiB region), live from startup.
    dir_base_ = enclave_->pages().ReserveHigh(kDirEntries * 4, "shadow-dir",
                                              VmAccounting::kFull);
    enclave_->pages().Commit(nullptr, dir_base_, kDirEntries * 4);
  }

  // --- Object lifecycle -----------------------------------------------------

  // Tags caller-owned storage at [base, base + ShFootprint(size)); base must
  // be 8-byte aligned (stack/bss/data objects carved by the caller).
  ShadowPtr SpecifyBounds(Cpu& cpu, uint32_t base, uint32_t size) {
    WriteObjectEntries(cpu, base, ShFootprint(size) / kShadowGranule);
    ++stats_.objects_created;
    return ShEncode(base, base);
  }

  ShadowPtr Malloc(Cpu& cpu, uint32_t size) {
    const uint32_t base = heap_->Alloc(cpu, ShFootprint(size), kShadowGranule);
    return SpecifyBounds(cpu, base, size);
  }

  ShadowPtr MallocAligned(Cpu& cpu, uint32_t size, uint32_t align) {
    const uint32_t eff_align = align <= kShadowGranule ? kShadowGranule : align;
    const uint32_t base = heap_->Alloc(cpu, ShFootprint(size), eff_align);
    return SpecifyBounds(cpu, base, size);
  }

  ShadowPtr Calloc(Cpu& cpu, uint32_t count, uint32_t elem_size) {
    const uint32_t bytes = count * elem_size;
    const ShadowPtr p = Malloc(cpu, bytes);
    if (bytes > 0) {
      cpu.MemAccess(ShAddr(p), bytes, AccessClass::kAppStore);
      std::memset(enclave_->space().HostPtr(ShAddr(p)), 0, bytes);
    }
    return p;
  }

  void Free(Cpu& cpu, ShadowPtr p) {
    const uint32_t anchor = ShAnchor(p);
    if (anchor == 0) {
      heap_->Free(cpu, ShAddr(p));  // untagged: uninstrumented origin
      return;
    }
    // The base entry's dist_end is the footprint; clearing every entry is
    // what arms use-after-free detection for stale anchors.
    const uint32_t granules = ObjectGranules(cpu, anchor);
    ClearObjectEntries(cpu, anchor, granules);
    big_objects_.erase(anchor);
    heap_->Free(cpu, anchor);
    ++stats_.objects_freed;
  }

  // --- Instrumentation primitives --------------------------------------------

  // Anchor-preserving add: same masked-add cost as SGXBounds (the anchor is
  // a plain base address, no field decode).
  ShadowPtr PtrAdd(Cpu& cpu, ShadowPtr p, int64_t delta) {
    cpu.Alu(2);
    return ShAdd(p, delta);
  }

  // The ShadowBound check: ONE dependent shadow load at the anchor's granule
  // yields both bounds. 3 ALU (granule index, field unpack, bound
  // materialization) + the entry load + 2 branches (escape test, verdict).
  uint32_t CheckAccess(Cpu& cpu, ShadowPtr p, uint32_t size, AccessType type) {
    const uint32_t addr = ShAddr(p);
    const uint32_t anchor = ShAnchor(p);
    if (anchor == 0) {
      return addr;  // untagged: uninstrumented origin, no bounds known
    }
    uint32_t lb = 0;
    uint64_t ub = 0;
    LoadBounds(cpu, anchor, &lb, &ub, addr, type);
    if (addr < lb || static_cast<uint64_t>(addr) + size > ub) {
      Violation(cpu, addr, type);
    }
    return addr;
  }

  // Hoisted range check: verifies [p, p + extent) once; loop bodies then
  // access the span unchecked.
  void CheckRange(Cpu& cpu, ShadowPtr p, uint64_t extent_bytes) {
    const uint32_t addr = ShAddr(p);
    const uint32_t anchor = ShAnchor(p);
    if (anchor == 0) {
      return;
    }
    uint32_t lb = 0;
    uint64_t ub = 0;
    LoadBounds(cpu, anchor, &lb, &ub, addr, AccessType::kReadWrite);
    if (addr < lb || static_cast<uint64_t>(addr) + extent_bytes > ub) {
      Violation(cpu, addr, AccessType::kReadWrite);
    }
  }

  // --- IrSchemeRuntime (the IR pipeline's generic scheme hooks) ---------------

  uint64_t IrAlloca(Cpu& cpu, StackAllocator& stack, uint32_t bytes) override {
    const uint32_t base = stack.Alloca(cpu, ShFootprint(bytes), kShadowGranule);
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

  // --- Fault campaigns --------------------------------------------------------

  // Flips one RNG-chosen bit of the shadow entry covering an RNG-chosen
  // address in the allocated heap span (charged metadata load + store). A
  // dist flip can shrink bounds (false violation), widen them (missed
  // violation) or fabricate a live object over freed memory.
  bool CorruptShadowEntry(Cpu& cpu, Rng& rng) {
    const uint64_t span = heap_->used_bytes();
    if (span == 0) {
      return false;
    }
    const uint32_t addr = heap_->base() + static_cast<uint32_t>(rng.NextBounded(span));
    const uint32_t eaddr = EntryAddr(cpu, addr);
    enclave_->pages().Commit(&cpu, eaddr, 4);
    const uint32_t entry = enclave_->Load<uint32_t>(cpu, eaddr, AccessClass::kMetadataLoad);
    const uint32_t flipped = entry ^ (1u << rng.NextBounded(32));
    enclave_->Store<uint32_t>(cpu, eaddr, flipped, AccessClass::kMetadataStore);
    return true;
  }

  Enclave* enclave() { return enclave_; }
  const ShadowStats& stats() const { return stats_; }
  uint32_t table_count() const { return static_cast<uint32_t>(tables_.size()); }

 private:
  static constexpr uint32_t kRegionShift = 23;  // 8 MiB app region per table
  static constexpr uint32_t kRegionBytes = 1u << kRegionShift;
  // (8 MiB / 8-byte granule) * 4-byte entry = 4 MiB per table.
  static constexpr uint64_t kTableBytes = (kRegionBytes / kShadowGranule) * 4ull;
  static constexpr uint32_t kDirEntries = 512;  // 4 GiB / 8 MiB
  static constexpr uint32_t kEscape = 0xffffu;  // large-object marker
  // Side-table walk for large objects: rare, fixed charge (cf. MPX's
  // bndldx/bndstx table-walk constant).
  static constexpr uint32_t kLargeObjectWalkCycles = 50;

  static constexpr uint32_t EncodeEntry(uint32_t dist_start, uint32_t dist_end) {
    return (dist_start << 16) | dist_end;
  }

  // Shadow entry address for `addr`'s granule; charges the directory load on
  // a region-cache miss and reserves the 4 MiB table on first touch.
  uint32_t EntryAddr(Cpu& cpu, uint32_t addr) {
    const uint32_t region = addr >> kRegionShift;
    uint32_t table_base;
    if (region == cached_region_) {
      cpu.Alu(1);  // the hot path: base is live in a register
      table_base = cached_table_;
    } else {
      const uint32_t dir_entry = dir_base_ + region * 4;
      cpu.MemAccess(dir_entry, 4, AccessClass::kMetadataLoad);
      auto it = tables_.find(region);
      if (it == tables_.end()) {
        // First touch of this region: reserve the table, as MPX reserves a
        // bounds table on a #BR fault. Address space accounting is real -
        // enough such tables exhaust the 32-bit space.
        table_base = enclave_->pages().ReserveLow(kTableBytes, "shadow-tab",
                                                  VmAccounting::kFull);
        ++stats_.tables_allocated;
        cpu.Charge(6000);
        cpu.MemAccess(dir_entry, 4, AccessClass::kMetadataStore);
        tables_.emplace(region, table_base);
      } else {
        table_base = it->second;
      }
      cached_region_ = region;
      cached_table_ = table_base;
    }
    return table_base + ((addr & (kRegionBytes - 1)) / kShadowGranule) * 4;
  }

  // Decodes [lb, ub) from the anchor's shadow entry; traps on a cleared
  // entry (freed object / wild anchor).
  void LoadBounds(Cpu& cpu, uint32_t anchor, uint32_t* lb, uint64_t* ub,
                  uint32_t fault_addr, AccessType type) {
    cpu.Alu(3);
    ++stats_.checks;
    cpu.CountBoundsCheck();
    const uint32_t eaddr = EntryAddr(cpu, anchor);
    enclave_->pages().Commit(&cpu, eaddr, 4);
    cpu.MemAccess(eaddr, 4, AccessClass::kMetadataLoad);
    cpu.Branch(2);
    uint32_t entry;
    std::memcpy(&entry, enclave_->space().HostPtr(eaddr), 4);
    if (entry == 0) {
      ++stats_.violations;
      cpu.CountBoundsViolation();
      throw SimTrap(TrapKind::kPolicyViolation, fault_addr,
                    "shadow: stale or wild pointer");
    }
    const uint32_t dist_start = entry >> 16;
    const uint32_t dist_end = entry & 0xffffu;
    const uint32_t granule_base = anchor & ~(kShadowGranule - 1);
    if (dist_start == kEscape || dist_end == kEscape) {
      // Large object: exact extent from the side table.
      ++stats_.slow_path_checks;
      cpu.Charge(kLargeObjectWalkCycles);
      auto it = big_objects_.find(anchor);
      if (it == big_objects_.end()) {
        ++stats_.violations;
        cpu.CountBoundsViolation();
        throw SimTrap(TrapKind::kPolicyViolation, fault_addr,
                      type == AccessType::kWrite
                          ? "shadow: out-of-bounds write"
                          : "shadow: out-of-bounds access");
      }
      *lb = it->first;
      *ub = static_cast<uint64_t>(it->first) + it->second;
      return;
    }
    *lb = granule_base - dist_start * kShadowGranule;
    *ub = static_cast<uint64_t>(granule_base) + dist_end * kShadowGranule;
  }

  [[noreturn]] void Violation(Cpu& cpu, uint32_t addr, AccessType type) {
    ++stats_.violations;
    cpu.CountBoundsViolation();
    throw SimTrap(TrapKind::kPolicyViolation, addr,
                  type == AccessType::kWrite ? "shadow: out-of-bounds write"
                                             : "shadow: out-of-bounds access");
  }

  // Footprint (in granules) of the live object based at `anchor`, read back
  // from its base entry (or the side table for large objects).
  uint32_t ObjectGranules(Cpu& cpu, uint32_t anchor) {
    const uint32_t eaddr = EntryAddr(cpu, anchor);
    enclave_->pages().Commit(&cpu, eaddr, 4);
    cpu.MemAccess(eaddr, 4, AccessClass::kMetadataLoad);
    uint32_t entry;
    std::memcpy(&entry, enclave_->space().HostPtr(eaddr), 4);
    const uint32_t dist_end = entry & 0xffffu;
    if (dist_end == kEscape || (entry >> 16) == kEscape) {
      auto it = big_objects_.find(anchor);
      return it == big_objects_.end() ? 0 : it->second / kShadowGranule;
    }
    return dist_end;
  }

  // Writes the {dist_start, dist_end} pair for every granule of a new
  // object (0xffff escape entries + a side-table record for objects too
  // large for 16-bit granule counts). Metadata traffic: 4 bytes per 8
  // application bytes, batched per region.
  void WriteObjectEntries(Cpu& cpu, uint32_t base, uint32_t granules) {
    const bool escape = granules >= kEscape;
    if (escape) {
      big_objects_[base] = granules * kShadowGranule;
    }
    ForEachRegionRun(cpu, base, granules, [&](uint8_t* host, uint32_t first_g,
                                              uint32_t n) {
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t g = first_g + i;
        const uint32_t entry = escape ? EncodeEntry(kEscape, kEscape)
                                      : EncodeEntry(g, granules - g);
        std::memcpy(host + i * 4, &entry, 4);
      }
    });
  }

  void ClearObjectEntries(Cpu& cpu, uint32_t base, uint32_t granules) {
    ForEachRegionRun(cpu, base, granules,
                     [&](uint8_t* host, uint32_t, uint32_t n) {
                       std::memset(host, 0, n * 4ull);
                     });
  }

  // Runs `body(host_entry_ptr, first_granule, count)` over the object's
  // shadow entries, split at 8 MiB region boundaries, charging commit +
  // metadata-store traffic per run.
  template <typename Body>
  void ForEachRegionRun(Cpu& cpu, uint32_t base, uint32_t granules, const Body& body) {
    uint32_t g = 0;
    while (g < granules) {
      const uint32_t addr = base + g * kShadowGranule;
      const uint32_t eaddr = EntryAddr(cpu, addr);
      const uint32_t region_left =
          (kRegionBytes - (addr & (kRegionBytes - 1))) / kShadowGranule;
      const uint32_t n = std::min(granules - g, region_left);
      enclave_->pages().Commit(&cpu, eaddr, n * 4ull);
      cpu.MemAccessRun(eaddr, 4, 4, n, AccessClass::kMetadataStore);
      body(enclave_->space().HostPtr(eaddr), g, n);
      g += n;
    }
  }

  Enclave* enclave_;
  Heap* heap_;
  uint32_t dir_base_;
  ShadowStats stats_;
  // Host-side mirror of the directory: region index -> table base.
  std::unordered_map<uint32_t, uint32_t> tables_;
  // Single-entry region cache: consecutive checks in the same 8 MiB region
  // skip the directory load (the common case by far).
  uint32_t cached_region_ = 0xffffffffu;
  uint32_t cached_table_ = 0;
  // Large-object side table: base -> footprint bytes (host-side metadata;
  // the simulated cost is kLargeObjectWalkCycles per escape-entry check).
  std::map<uint32_t, uint32_t> big_objects_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_POLICY_SHADOW_SHADOW_RUNTIME_H_
