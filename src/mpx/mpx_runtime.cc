#include "src/mpx/mpx_runtime.h"

#include <cstring>

#include "src/common/check.h"

namespace sgxb {

MpxRuntime::MpxRuntime(Enclave* enclave) : enclave_(enclave) {
  // 32 KiB Bounds Directory, mapped at startup (SS5.2).
  bd_base_ = enclave_->pages().ReserveHigh(4096 * kBdEntryBytes, "mpx-bd", VmAccounting::kFull);
  enclave_->pages().Commit(nullptr, bd_base_, 4096 * kBdEntryBytes);
  spill_base_ = enclave_->pages().ReserveHigh(kPageSize, "mpx-spill", VmAccounting::kFull);
  enclave_->pages().Commit(nullptr, spill_base_, kPageSize);
}

uint64_t* MpxRuntime::InlineCheckCounter() { return &stats_.bndcl_bndcu; }

MpxBounds MpxRuntime::BndMk(Cpu& cpu, uint32_t base, uint32_t size) {
  ++stats_.bndmk;
  cpu.Alu(1);
  return MpxBounds{base, base + size};
}

bool MpxRuntime::BndCheckFail(Cpu& cpu, uint32_t addr, bool fatal) {
  ++stats_.violations;
  cpu.CountBoundsViolation();
  if (fatal) {
    throw SimTrap(TrapKind::kMpxBoundRange, addr, "#BR bound range exceeded");
  }
  return false;
}

uint32_t MpxRuntime::BtFor(Cpu& cpu, uint32_t ptr_loc, bool allocate) {
  const uint32_t bd_index = ptr_loc >> kBdIndexShift;
  // The BD entry read is part of every bndldx/bndstx.
  const uint32_t bd_entry = bd_base_ + bd_index * kBdEntryBytes;
  cpu.MemAccess(bd_entry, kBdEntryBytes, AccessClass::kMetadataLoad);
  auto it = bt_bases_.find(bd_index);
  if (it != bt_bases_.end()) {
    return it->second;
  }
  if (!allocate) {
    return 0;
  }
  // #BR fault -> in-enclave BT allocation (SS5.2): reserve 4 MiB of enclave
  // address space; pages commit as entries are touched. The reservation
  // itself counts fully toward virtual memory, like the kernel's mmap would.
  const uint32_t bt_base =
      enclave_->pages().ReserveLow(kBtBytes, "mpx-bt", VmAccounting::kFull);
  ++stats_.bt_allocs;
  // Fault forwarding + allocation logic; rare, so a fixed charge suffices.
  cpu.Charge(6000);
  cpu.MemAccess(bd_entry, kBdEntryBytes, AccessClass::kMetadataStore);
  bt_bases_.emplace(bd_index, bt_base);
  return bt_base;
}

// Instruction overhead of the bndldx/bndstx microcoded address translation
// (index math + two dependent table references beyond the memory traffic
// charged below; measured latencies are tens of cycles, see the authors'
// "Intel MPX Explained" report).
constexpr uint32_t kTableWalkCycles = 50;

void MpxRuntime::BndStx(Cpu& cpu, uint32_t ptr_loc, uint32_t ptr_value, const MpxBounds& bounds) {
  ++stats_.bndstx;
  cpu.Charge(kTableWalkCycles);
  cpu.Alu(4);
  const uint32_t bt_base = BtFor(cpu, ptr_loc, /*allocate=*/true);
  const uint32_t entry = BtEntryAddr(bt_base, ptr_loc);
  enclave_->pages().Commit(&cpu, entry, kBtEntryBytes);
  cpu.MemAccess(entry, kBtEntryBytes, AccessClass::kMetadataStore);
  auto* host = enclave_->space().HostPtr(entry);
  uint32_t words[4] = {bounds.lb, bounds.ub, ptr_value, 0};
  std::memcpy(host, words, sizeof(words));
  if (track_entries_ && entry_seen_.insert(entry).second) {
    entry_addrs_.push_back(entry);
  }
  RegInsert(cpu, ptr_loc, bounds);
}

MpxBounds MpxRuntime::BndLdx(Cpu& cpu, uint32_t ptr_loc, uint32_t ptr_value) {
  ++stats_.bndldx;
  cpu.Charge(kTableWalkCycles);
  cpu.Alu(4);
  const uint32_t bt_base = BtFor(cpu, ptr_loc, /*allocate=*/false);
  if (bt_base == 0) {
    // No table: INIT bounds (pointer never stored with bndstx).
    ++stats_.value_mismatches;
    return MpxBounds{};
  }
  const uint32_t entry = BtEntryAddr(bt_base, ptr_loc);
  if (!enclave_->pages().Committed(entry)) {
    ++stats_.value_mismatches;
    return MpxBounds{};
  }
  cpu.MemAccess(entry, kBtEntryBytes, AccessClass::kMetadataLoad);
  uint32_t words[4];
  std::memcpy(words, enclave_->space().HostPtr(entry), sizeof(words));
  cpu.Alu(1);  // pointer-value comparison
  if (words[2] != ptr_value) {
    // Stale entry (pointer was overwritten without bndstx, e.g. by
    // uninstrumented libc, or raced by another thread): hardware returns
    // INIT bounds and the access goes unchecked.
    ++stats_.value_mismatches;
    return MpxBounds{};
  }
  const MpxBounds bounds{words[0], words[1]};
  RegInsert(cpu, ptr_loc, bounds);
  return bounds;
}

bool MpxRuntime::RegLookup(uint32_t ptr_loc, MpxBounds* bounds) {
  for (auto& reg : regs_) {
    if (reg.ptr_loc == ptr_loc) {
      reg.stamp = ++reg_tick_;
      *bounds = reg.bounds;
      ++stats_.reg_hits;
      return true;
    }
  }
  return false;
}

void MpxRuntime::RegInsert(Cpu& cpu, uint32_t ptr_loc, const MpxBounds& bounds) {
  RegEntry* victim = &regs_[0];
  for (auto& reg : regs_) {
    if (reg.ptr_loc == ptr_loc) {
      victim = &reg;
      break;
    }
    if (reg.stamp < victim->stamp) {
      victim = &reg;
    }
  }
  if (victim->ptr_loc != 0xffffffffu && victim->ptr_loc != ptr_loc) {
    // bndmov spill of the evicted bounds to the frame's spill slot.
    const uint32_t slot = spill_base_ + (victim - regs_) * 16;
    cpu.Charge(4);
    cpu.MemAccess(slot, 16, AccessClass::kMetadataStore);
  }
  victim->ptr_loc = ptr_loc;
  victim->bounds = bounds;
  victim->stamp = ++reg_tick_;
}

void MpxRuntime::RegInvalidate(uint32_t ptr_loc) {
  for (auto& reg : regs_) {
    if (reg.ptr_loc == ptr_loc) {
      reg.ptr_loc = 0xffffffffu;
      reg.stamp = 0;
    }
  }
}

}  // namespace sgxb
