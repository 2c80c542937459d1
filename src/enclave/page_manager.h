// Virtual-memory bookkeeping for the simulated enclave.
//
// Responsibilities:
//   * Region reservation: carve address-space regions for the heap, stacks,
//     globals, and hardening metadata (ASan shadow, MPX bounds tables). Low
//     regions grow upward from page 1; metadata regions grow downward from
//     just below the guard page at the top of the address space (SS4.4: the
//     last 4 KiB page is unaddressable to catch hoisted-check overflows).
//   * Commit/decommit: a page must be committed before it is addressable.
//     Committing zeroes the page and charges a minor fault; decommitting
//     returns host memory and invalidates EPC residency.
//   * Accounting: the paper's memory metric is peak reserved virtual memory
//     (Figs. 1, 7, 11 bottom panels and the Fig. 13 table). Hard metadata
//     reservations (ASan's 512 MiB shadow, each 4 MiB MPX bounds table)
//     count in full the moment they are mapped; demand-grown regions (heap,
//     stacks) count as they are committed, like a brk/mmap heap whose VIRT
//     grows with use.
//
// The four per-page tables (committed, guard, addressable, accounting) span
// the whole 32-bit guest range, 2^20 entries, whatever the space's size, so
// any guest address indexes them in bounds. They live in ZeroedTables:
// building a PageManager writes only its two permanent guard entries, and
// host memory follows the pages a run actually reserves or commits. Every
// table therefore reads 0 for a page never touched, which is why
// VmAccounting's kOnCommit is the zero value, and a page past the space reads
// uncommitted and unaddressable: an access there traps, and so does a Commit
// (CommitSlow).

#ifndef SGXBOUNDS_SRC_ENCLAVE_PAGE_MANAGER_H_
#define SGXBOUNDS_SRC_ENCLAVE_PAGE_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/common/zeroed_table.h"
#include "src/sim/machine.h"

namespace sgxb {

// How a region contributes to the virtual-memory metric.
// kOnCommit must stay 0: it is what an untouched per-page entry reads as.
enum class VmAccounting : uint8_t {
  kOnCommit = 0,  // counts per committed page (demand-grown heap/stack)
  kFull = 1,      // counts fully at reservation time (mmap'd metadata regions)
};

class PageManager {
 public:
  // space_bytes: size of the simulated address space (<= 4 GiB).
  PageManager(uint64_t space_bytes, MemorySystem* memory);

  // Reserves `bytes` of address space (rounded up to pages). Low regions are
  // for application data; high regions for hardening metadata. Returns the
  // region base address. Traps with kOutOfMemory when the space is exhausted.
  uint32_t ReserveLow(uint64_t bytes, const std::string& tag,
                      VmAccounting accounting = VmAccounting::kOnCommit);
  uint32_t ReserveHigh(uint64_t bytes, const std::string& tag,
                       VmAccounting accounting = VmAccounting::kFull);

  // Commits pages covering [addr, addr+bytes). Newly committed pages are
  // zeroed and charged as minor faults on `cpu` (pass nullptr to skip cycle
  // charging, e.g. during machine setup). A page at or past the end of the
  // space traps with kSegFault before anything is committed. Already-committed single-page
  // ranges (the overwhelmingly common case: metadata writes from hardening
  // runtimes re-committing hot shadow pages) return without the page walk.
  void Commit(Cpu* cpu, uint32_t addr, uint64_t bytes) {
    if (bytes == 0) {
      return;
    }
    const uint32_t first = PageOf(addr);
    const uint32_t last = PageOf(static_cast<uint32_t>(addr + bytes - 1));
    if (first == last && committed_[first]) {
      return;
    }
    CommitSlow(cpu, first, last);
  }
  void Decommit(uint32_t addr, uint64_t bytes);

  bool Committed(uint32_t addr) const { return committed_[PageOf(addr)] != 0; }

  // Addressability: guard pages trap as SIGSEGV even when inside a reserved
  // region.
  void SetGuardPage(uint32_t page);
  bool Addressable(uint32_t addr) const { return addressable_[PageOf(addr)] != 0; }
  // The per-page addressable bytes Addressable() reads, indexed by page.
  const uint8_t* addressable_table() const { return addressable_.data(); }

  // The paper's "virtual memory" metric.
  uint64_t vm_bytes() const { return vm_bytes_; }
  uint64_t peak_vm_bytes() const { return peak_vm_bytes_; }

  uint64_t committed_bytes() const { return committed_bytes_; }
  uint64_t peak_committed_bytes() const { return peak_committed_bytes_; }
  uint64_t space_bytes() const { return space_bytes_; }

  // Per-tag reserved bytes, for diagnostics ("how much went to bounds
  // tables?").
  uint64_t ReservedForTag(const std::string& tag) const;

  // Host-side zeroing needs the arena; wired by Enclave after construction.
  void AttachZeroHook(uint8_t* arena_base) { arena_base_ = arena_base; }

 private:
  struct Region {
    uint32_t base;
    uint64_t bytes;
    std::string tag;
    VmAccounting accounting;
  };

  uint32_t Carve(uint64_t bytes, const std::string& tag, VmAccounting accounting, bool low);
  void CommitSlow(Cpu* cpu, uint32_t first_page, uint32_t last_page);
  // Accounting mode of the region containing `page` (kOnCommit when outside
  // any region, which only happens in tests that commit raw pages).
  VmAccounting AccountingFor(uint32_t page) const {
    return static_cast<VmAccounting>(accounting_[page]);
  }
  void BumpVm(uint64_t bytes) {
    vm_bytes_ += bytes;
    if (vm_bytes_ > peak_vm_bytes_) {
      peak_vm_bytes_ = vm_bytes_;
    }
  }

  uint64_t space_bytes_;
  MemorySystem* memory_;
  uint8_t* arena_base_ = nullptr;
  // False until the first Decommit: fresh commits rely on the anonymous mmap
  // being zero-filled and skip the page memset; after any decommit, pages may
  // be recycled dirty and committing must zero them.
  bool zero_on_commit_ = false;
  uint64_t low_cursor_ = kPageSize;  // page 0 is the NULL guard
  uint64_t high_cursor_;             // grows downward
  uint64_t vm_bytes_ = 0;
  uint64_t peak_vm_bytes_ = 0;
  uint64_t committed_bytes_ = 0;
  uint64_t peak_committed_bytes_ = 0;
  std::vector<Region> regions_;
  ZeroedTable<uint8_t> committed_;
  ZeroedTable<uint8_t> guard_;
  // committed_[p] && !guard_[p], merged so Addressable() is a single load.
  ZeroedTable<uint8_t> addressable_;
  // Per-page VmAccounting, filled at Carve so commit-time lookup is O(1).
  ZeroedTable<uint8_t> accounting_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_ENCLAVE_PAGE_MANAGER_H_
