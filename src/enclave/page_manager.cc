#include "src/enclave/page_manager.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/enclave/trap.h"

namespace sgxb {

namespace {

// Every 32-bit guest address has an entry in the per-page tables.
constexpr size_t kGuestPages = (4 * kGiB) / kPageSize;

}  // namespace

PageManager::PageManager(uint64_t space_bytes, MemorySystem* memory)
    : space_bytes_(space_bytes),
      memory_(memory),
      committed_(kGuestPages),
      guard_(kGuestPages),
      addressable_(kGuestPages),
      accounting_(kGuestPages) {
  CHECK_GT(space_bytes, 2 * kPageSize);
  CHECK_LE(space_bytes, 4 * kGiB);
  // Page 0 (NULL) and the top page of the space (SS4.4 loop-hoisting
  // precaution) are permanent guards.
  guard_[0] = 1;
  guard_[space_bytes / kPageSize - 1] = 1;
  high_cursor_ = space_bytes - kPageSize;
}

uint32_t PageManager::Carve(uint64_t bytes, const std::string& tag, VmAccounting accounting,
                            bool low) {
  const uint64_t rounded = AlignUp64(bytes, kPageSize);
  uint32_t base;
  if (low) {
    if (low_cursor_ + rounded > high_cursor_) {
      throw SimTrap(TrapKind::kOutOfMemory, static_cast<uint32_t>(low_cursor_),
                    "address space exhausted reserving " + tag);
    }
    base = static_cast<uint32_t>(low_cursor_);
    low_cursor_ += rounded;
  } else {
    if (high_cursor_ < rounded || high_cursor_ - rounded < low_cursor_) {
      throw SimTrap(TrapKind::kOutOfMemory, static_cast<uint32_t>(high_cursor_),
                    "address space exhausted reserving " + tag);
    }
    high_cursor_ -= rounded;
    base = static_cast<uint32_t>(high_cursor_);
  }
  regions_.push_back({base, rounded, tag, accounting});
  // Regions never overlap, so the new region's entries still read 0, which
  // is kOnCommit: only kFull regions are written (a 3 GiB heap reservation
  // would otherwise fault in 768 KiB of table to write zeros).
  if (accounting == VmAccounting::kFull) {
    std::fill_n(accounting_.data() + PageOf(base), rounded / kPageSize,
                static_cast<uint8_t>(accounting));
    BumpVm(rounded);
  }
  return base;
}

uint32_t PageManager::ReserveLow(uint64_t bytes, const std::string& tag,
                                 VmAccounting accounting) {
  return Carve(bytes, tag, accounting, /*low=*/true);
}

uint32_t PageManager::ReserveHigh(uint64_t bytes, const std::string& tag,
                                  VmAccounting accounting) {
  return Carve(bytes, tag, accounting, /*low=*/false);
}

void PageManager::CommitSlow(Cpu* cpu, uint32_t first, uint32_t last) {
  if (last >= space_bytes_ / kPageSize) {
    throw SimTrap(TrapKind::kSegFault, last << kPageShift,
                  "commit of a page past the enclave address space");
  }
  // Jump between uncommitted pages with memchr: large ranges that are already
  // (mostly) committed — heap blocks recycled every iteration, hot shadow
  // regions — skip at memory-scan speed instead of testing page by page.
  // Fresh pages are then swallowed as contiguous runs so the minor-fault
  // charge (Cpu::CommitPages, one trace event per run) is batched.
  const uint8_t* bits = committed_.data();
  uint32_t page = first;
  while (page <= last) {
    const void* gap = std::memchr(bits + page, 0, last - page + 1);
    if (gap == nullptr) {
      break;
    }
    page = static_cast<uint32_t>(static_cast<const uint8_t*>(gap) - bits);
    const uint32_t run_start = page;
    while (page <= last && !committed_[page]) {
      committed_[page] = 1;
      addressable_[page] = guard_[page] == 0;
      committed_bytes_ += kPageSize;
      if (AccountingFor(page) == VmAccounting::kOnCommit) {
        BumpVm(kPageSize);
      }
      if (zero_on_commit_ && arena_base_ != nullptr) {
        std::memset(arena_base_ + static_cast<uint64_t>(page) * kPageSize, 0, kPageSize);
      }
      ++page;
    }
    if (cpu != nullptr) {
      cpu->CommitPages(run_start, page - run_start);
    }
  }
  peak_committed_bytes_ = std::max(peak_committed_bytes_, committed_bytes_);
}

void PageManager::Decommit(uint32_t addr, uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  // Once any page has been handed back it may carry stale data, so recommits
  // must zero from here on. Until then the backing mmap is zero-filled and
  // first-time commits can skip the memset.
  zero_on_commit_ = true;
  const uint32_t first = PageOf(addr);
  const uint32_t last = PageOf(static_cast<uint32_t>(addr + bytes - 1));
  // Replay invalidates the whole range: equivalent, because a page that was
  // never committed cannot be EPC-resident.
  if (memory_->trace() != nullptr) {
    memory_->trace()->OnDecommit(first, last - first + 1);
  }
  for (uint32_t page = first; page <= last; ++page) {
    if (!committed_[page]) {
      continue;
    }
    committed_[page] = 0;
    addressable_[page] = 0;
    committed_bytes_ -= kPageSize;
    if (AccountingFor(page) == VmAccounting::kOnCommit) {
      vm_bytes_ -= kPageSize;
    }
    memory_->epc().Invalidate(page);
  }
}

void PageManager::SetGuardPage(uint32_t page) {
  CHECK_LT(page, space_bytes_ / kPageSize);
  guard_[page] = 1;
  addressable_[page] = 0;
}

uint64_t PageManager::ReservedForTag(const std::string& tag) const {
  uint64_t total = 0;
  for (const auto& region : regions_) {
    if (region.tag == tag) {
      total += region.bytes;
    }
  }
  return total;
}

}  // namespace sgxb
