// Enclave heap allocator (the malloc the shielded libc provides).
//
// First-fit with address-ordered coalescing over a reserved heap region.
// Allocator bookkeeping lives host-side (it is "runtime" code, not app data),
// but its cost is charged: each malloc/free charges fixed cycles plus a
// header-sized metadata access at the block address, and page commits charge
// minor faults - so allocation-churn-heavy workloads (PARSEC swaptions) pay
// realistic costs.
//
// Hardening schemes wrap this allocator: SGXBounds adds 4 footer bytes
// (SS3.2), ASan adds redzones + quarantine, MPX allocates bounds tables on
// the side.

#ifndef SGXBOUNDS_SRC_RUNTIME_HEAP_H_
#define SGXBOUNDS_SRC_RUNTIME_HEAP_H_

#include <cstdint>
#include <map>
#include <unordered_map>

#include "src/enclave/enclave.h"

namespace sgxb {

struct HeapStats {
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t live_bytes = 0;
  uint64_t peak_live_bytes = 0;
  uint64_t failed_allocs = 0;
};

// calloc's byte count: count * elem. Throws SimTrap(kOutOfMemory) when the
// product does not fit in 32 bits, as a real calloc fails rather than
// allocate the wrapped size.
inline uint32_t CallocBytes(uint32_t count, uint32_t elem) {
  const uint64_t total = static_cast<uint64_t>(count) * elem;
  if (total > UINT32_MAX) {
    throw SimTrap(TrapKind::kOutOfMemory, 0, "calloc size overflows 32 bits");
  }
  return static_cast<uint32_t>(total);
}

class Heap {
 public:
  // reserve_bytes: maximum heap size; address space is reserved immediately
  // (counts toward peak virtual memory), pages commit on demand.
  Heap(Enclave* enclave, uint64_t reserve_bytes, const std::string& tag = "heap");

  // Returns the block address (16-byte aligned). Throws SimTrap(kOutOfMemory)
  // when the reservation is exhausted - this is how Intel MPX dies on dedup
  // and how Fig. 1 MPX dies on SQLite.
  uint32_t Alloc(Cpu& cpu, uint32_t size, uint32_t align = 16);

  // Convenience: allocation that returns 0 instead of trapping.
  uint32_t TryAlloc(Cpu& cpu, uint32_t size, uint32_t align = 16);

  void Free(Cpu& cpu, uint32_t addr);

  // Size originally requested for the block at `addr` (must be live).
  uint32_t BlockSize(uint32_t addr) const;

  const HeapStats& stats() const { return stats_; }
  uint32_t base() const { return base_; }
  uint64_t reserve_bytes() const { return reserve_bytes_; }
  // Start of the never-allocated tail; [base, wilderness) is the span the
  // allocator has ever handed out (fault campaigns target wild writes here).
  uint32_t wilderness() const { return wilderness_; }
  uint64_t used_bytes() const { return wilderness_ - base_; }

  // True if `addr` lies inside a live block (diagnostic; used by tests).
  bool IsLive(uint32_t addr) const;

  // True if `addr` is exactly the start of a live block (O(1); lets runtimes
  // validate a base pointer recovered from possibly-corrupted metadata).
  bool IsBlockStart(uint32_t addr) const;

  // Verifies allocator bookkeeping: free-list blocks sorted, non-overlapping
  // and inside [base, wilderness); live blocks disjoint from each other and
  // from every free block; live-byte accounting consistent; the first-fit
  // watermark a true upper bound. O(n log n) diagnostic for tests and fault
  // campaigns; returns false and fills `error` on the first violation.
  bool CheckInvariants(std::string* error) const;

 private:
  struct FreeBlock {
    uint32_t size;
  };

  uint32_t AllocLocked(Cpu& cpu, uint32_t size, uint32_t align, bool may_throw);

  // All free_blocks_ mutations go through these so max_free_upper_ stays an
  // upper bound on the largest free-block size.
  void FreeListInsert(uint32_t addr, uint32_t size) {
    free_blocks_[addr] = size;
    if (size > max_free_upper_) {
      max_free_upper_ = size;
    }
  }
  void FreeListErase(std::map<uint32_t, uint32_t>::iterator it) { free_blocks_.erase(it); }

  Enclave* enclave_;
  uint64_t reserve_bytes_;
  uint32_t base_;
  uint32_t wilderness_;  // start of the never-allocated tail
  HeapStats stats_;
  // Address-ordered free blocks (coalescing needs ordered neighbours); live
  // blocks only ever see exact-key lookups, so they live in a hash map.
  std::map<uint32_t, uint32_t> free_blocks_;            // addr -> size
  std::unordered_map<uint32_t, uint32_t> live_blocks_;  // addr -> requested size
  // Upper bound on the largest free-block size: lets the first-fit scan be
  // skipped outright when no block can be large enough (the common case for
  // fresh allocations), without changing which block a fitting request picks.
  // Grows on insert; tightened to the exact maximum whenever a full scan
  // completes without a fit.
  uint32_t max_free_upper_ = 0;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_RUNTIME_HEAP_H_
