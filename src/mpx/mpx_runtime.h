// Intel MPX emulation (paper SS2.2, SS5.2), the hardware baseline.
//
// Modeled mechanisms, matching the paper's in-enclave port:
//   * 4 bounds registers (bnd0-3). The compiler keeps bounds of the hottest
//     pointers in registers; we model this with a 4-entry LRU keyed by the
//     pointer's home location, so repeated uses of the same pointer skip
//     table traffic exactly like register-allocated bounds do (this is why
//     matrixmul is free under MPX - 3 arrays, 3 registers, Table 3).
//   * bndmk/bndcl/bndcu: pure ALU cost.
//   * bndldx/bndstx: two-level table walk. 32-bit mode (SS5.2): a 32 KiB
//     Bounds Directory indexed by addr[31:20] (4096 entries x 8 B), and
//     4 MiB Bounds Tables indexed by addr[19:2] (2^18 entries x 16 B:
//     {LB, UB, pointer value, reserved}). BTs are allocated on demand INSIDE
//     the enclave (the paper moves the kernel's BT-allocation logic into the
//     MPX runtime); each allocation reserves 4 MiB of enclave address space,
//     which is how MPX exhausts memory on SQLite/dedup/mcf.
//   * The stored-pointer-value check: if the entry's pointer value does not
//     match the loaded pointer, bndldx returns INIT (unbounded) bounds. This
//     faithfully reproduces both MPX escape hatches the paper leans on:
//     pointers stored by uninstrumented libc code are unprotected (RIPE,
//     Table 4), and racy pointer/bounds updates in multithreaded code cause
//     false positives/negatives (SS4.1).

#ifndef SGXBOUNDS_SRC_MPX_MPX_RUNTIME_H_
#define SGXBOUNDS_SRC_MPX_MPX_RUNTIME_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/heap.h"

namespace sgxb {

// A bounds-register value. INIT bounds (lb=0, ub=max) mean "unchecked".
struct MpxBounds {
  uint32_t lb = 0;
  uint32_t ub = 0xffffffffu;

  bool IsInit() const { return lb == 0 && ub == 0xffffffffu; }
};

struct MpxStats {
  uint64_t bndmk = 0;
  uint64_t bndcl_bndcu = 0;
  uint64_t bndldx = 0;
  uint64_t bndstx = 0;
  uint64_t bt_allocs = 0;
  uint64_t value_mismatches = 0;  // bndldx returned INIT due to stale entry
  uint64_t violations = 0;
  uint64_t reg_hits = 0;  // table walk avoided by a bounds register
};

class MpxRuntime {
 public:
  explicit MpxRuntime(Enclave* enclave);

  // bndmk: create bounds for a new object.
  MpxBounds BndMk(Cpu& cpu, uint32_t base, uint32_t size);

  // bndcl + bndcu: check [addr, addr+size) against `bounds`. Throws
  // SimTrap(kMpxBoundRange) unless `fatal` is false (RIPE harness mode).
  // Inline: runs before every MPX-checked access; violations are rare and
  // handled out of line.
  bool BndCheck(Cpu& cpu, const MpxBounds& bounds, uint32_t addr, uint32_t size,
                bool fatal = true) {
    ++stats_.bndcl_bndcu;
    cpu.CountBoundsCheck();
    cpu.Alu(3);  // bndcl + bndcu + the duplicated address lea GCC emits
    const bool ok =
        addr >= bounds.lb && static_cast<uint64_t>(addr) + size <= static_cast<uint64_t>(bounds.ub);
    if (ok) {
      return true;
    }
    return BndCheckFail(cpu, addr, fatal);
  }

  // bndstx: associate `bounds` with the pointer stored at `ptr_loc`
  // (the pointer's own value is part of the entry).
  void BndStx(Cpu& cpu, uint32_t ptr_loc, uint32_t ptr_value, const MpxBounds& bounds);

  // bndldx: load the bounds associated with the pointer at `ptr_loc` whose
  // loaded value is `ptr_value`. Returns INIT bounds on empty/stale entries.
  MpxBounds BndLdx(Cpu& cpu, uint32_t ptr_loc, uint32_t ptr_value);

  // Bounds-register file model: returns true (and the bounds) if `ptr_loc`'s
  // bounds currently live in one of the 4 registers.
  bool RegLookup(uint32_t ptr_loc, MpxBounds* bounds);
  // Inserting into a full register file evicts the LRU entry with a bndmov
  // spill to the stack (charged 16 B of metadata traffic) - the register
  // pressure that multiplies MPX's instruction count on pointer-dense code.
  void RegInsert(Cpu& cpu, uint32_t ptr_loc, const MpxBounds& bounds);
  void RegInvalidate(uint32_t ptr_loc);

  uint32_t bt_count() const { return static_cast<uint32_t>(bt_bases_.size()); }
  const MpxStats& stats() const { return stats_; }
  // For generated code that makes BndCheck's passing case itself (JIT tier
  // 3, src/ir/exec/jit/compiler.cc): the counter behind
  // stats().bndcl_bndcu. Out of line, like every accessor only the JIT needs.
  uint64_t* InlineCheckCounter();

  // Fault campaigns (src/fault): when entry tracking is on, every bndstx
  // records its BT entry address so a corruptor can pick a populated entry
  // deterministically. Off by default: normal runs pay nothing.
  void set_track_entries(bool on) { track_entries_ = on; }

  // Flips one RNG-chosen bit in the {LB, UB, pointer value} words of an
  // RNG-chosen populated bounds-table entry (charged metadata load + store).
  // A ptr-value flip silently widens to INIT bounds; an LB/UB flip can
  // fabricate or mask a #BR. Returns false when no entry was ever stored.
  bool CorruptBoundsTable(Cpu& cpu, Rng& rng) {
    if (entry_addrs_.empty()) {
      return false;
    }
    const uint32_t entry = entry_addrs_[rng.NextBounded(entry_addrs_.size())];
    const uint32_t word = entry + 4 * static_cast<uint32_t>(rng.NextBounded(3));
    const uint32_t value = enclave_->Load<uint32_t>(cpu, word, AccessClass::kMetadataLoad);
    const uint32_t flipped = value ^ (1u << rng.NextBounded(32));
    enclave_->Store<uint32_t>(cpu, word, flipped, AccessClass::kMetadataStore);
    return true;
  }

 private:
  static constexpr uint32_t kBdIndexShift = 20;            // addr[31:20]
  static constexpr uint32_t kBdEntryBytes = 8;             // 4096 * 8 = 32 KiB
  static constexpr uint32_t kBtIndexMask = (1u << 18) - 1;  // addr[19:2]
  static constexpr uint32_t kBtEntryBytes = 16;            // 2^18 * 16 = 4 MiB
  static constexpr uint64_t kBtBytes = 4 * kMiB;

  // Violation tail of BndCheck: count it, then trap or report.
  bool BndCheckFail(Cpu& cpu, uint32_t addr, bool fatal);

  // Returns the BT base covering ptr_loc, allocating the table on demand.
  uint32_t BtFor(Cpu& cpu, uint32_t ptr_loc, bool allocate);
  uint32_t BtEntryAddr(uint32_t bt_base, uint32_t ptr_loc) const {
    return bt_base + ((ptr_loc >> 2) & kBtIndexMask) * kBtEntryBytes;
  }

  struct RegEntry {
    uint32_t ptr_loc = 0xffffffffu;
    MpxBounds bounds;
    uint64_t stamp = 0;
  };

  Enclave* enclave_;
  uint32_t bd_base_;
  uint32_t spill_base_;  // the function frame's bounds spill slots
  MpxStats stats_;
  std::unordered_map<uint32_t, uint32_t> bt_bases_;  // BD index -> BT base
  RegEntry regs_[4];
  uint64_t reg_tick_ = 0;
  // Populated-entry index for fault campaigns (insertion-ordered vector for
  // a deterministic RNG pick; set for O(1) dedup).
  bool track_entries_ = false;
  std::vector<uint32_t> entry_addrs_;
  std::unordered_set<uint32_t> entry_seen_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_MPX_MPX_RUNTIME_H_
