// Set-associative cache model with true-LRU replacement.
//
// Operates on cache-line identifiers (address >> 6). Each level is an
// independent Cache; the Cpu/MemorySystem wiring in machine.h composes them
// into an inclusive-enough hierarchy (a miss at level N is looked up at level
// N+1; fills propagate back).
//
// Ways within a set are stored in recency order (way 0 = MRU, way ways-1 =
// LRU), so the hot-line common case resolves on the first probe and eviction
// needs no stamp scan. This is behaviourally identical to stamp-based
// true-LRU: hit/miss outcomes and victim choices match access-for-access.
//
// Host-side layout of a lookup: ways 0 and 1 are probed inline (Access). The
// rest of the set goes to AccessSlow, which, when ways is a multiple of 4 and
// the host has SSE2, compares 4 ways per instruction (cmpeq + movemask, ctz
// names the way) and then promotes the hit (or inserts the miss over the LRU
// way) with one branch-free shift-and-blend per 4-way group up to the hit. Any
// other associativity takes a plain scalar scan. Both orders are the same
// recency list, so the modeled outcome never depends on the path.

#ifndef SGXBOUNDS_SRC_SIM_CACHE_H_
#define SGXBOUNDS_SRC_SIM_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace sgxb {

class Cache {
 public:
  // size_bytes must be a multiple of line_size * ways; the set count is
  // derived and must be a power of two.
  Cache(uint64_t size_bytes, uint32_t ways);

  // Looks up a line; on miss, inserts it (evicting LRU). Returns true on hit.
  bool Access(uint32_t line) {
    uint32_t* base = &slots_[static_cast<size_t>(line & set_mask_) * ways_];
    if (base[0] == line) {  // MRU fast path: repeated hot-line access
      ++hits_;
      return true;
    }
    if (base[1] == line) {  // way-1 fast path: two lines alternating
      base[1] = base[0];    // (data+metadata interleavings make this common)
      base[0] = line;
      ++hits_;
      return true;
    }
    return AccessSlow(line, base);
  }

  // Books a hit without probing. Only valid when the caller knows `line` is
  // this cache's MRU line for its set (e.g. the Cpu's last-line fast path):
  // re-accessing the MRU line changes no replacement state, so counting the
  // hit is all Access() would have done.
  void CountMruHit() { ++hits_; }
  // Batched form, same precondition for every one of the `n` hits.
  void CountMruHits(uint64_t n) { hits_ += n; }

  // Lookup without allocation (used by tests and the EPC prefetch logic).
  bool Contains(uint32_t line) const;

  // The lines resident in `line`'s set, most recent first (tests compare
  // the full recency order against a reference LRU).
  std::vector<uint32_t> SetOrder(uint32_t line) const;

  // Drops all content (e.g. when an experiment resets the machine).
  void Flush();

  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t ways() const { return ways_; }
  uint32_t sets() const { return sets_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static constexpr uint32_t kInvalidLine = 0xffffffffu;

  // Scan beyond ways 0-1 (probed inline); promote on hit, evict the LRU way
  // on miss.
  bool AccessSlow(uint32_t line, uint32_t* base);
  // Way holding `line` in the set at `base`, or ways_ when absent.
  uint32_t Find(uint32_t line, const uint32_t* base) const;

  uint64_t size_bytes_;
  uint32_t ways_;
  uint32_t sets_;
  uint32_t set_mask_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  size_t num_slots_ = 0;  // sets_ * ways_ + 1 sentinel
  struct AlignedDelete {
    void operator()(uint32_t* p) const { ::operator delete[](p, std::align_val_t{64}); }
  };
  // sets_ * ways_ line ids, row-major by set, MRU first. 64-byte aligned so a
  // set's ways never straddle host cache lines (a 16-way set is exactly one
  // line); a plain vector's 16-byte alignment would split most probes in two.
  std::unique_ptr<uint32_t[], AlignedDelete> slots_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_CACHE_H_
