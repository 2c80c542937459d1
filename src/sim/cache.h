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
// Host-side layout of a lookup: callers that can test a line against its
// set's MRU way first (IsMru; the Cpu does so inline for every L1 access)
// skip the call entirely, since re-accessing the MRU line changes no
// replacement state. AccessFront() probes ways 0 and 1 and promotes a way-1
// hit by swapping the two. The rest is Walk(), the one exact walk of a
// whole set (src/sim/cache_walk.h, which only src/sim includes): for 8 and
// 16 ways, the machine's geometries, an inline SSE2 slide with the way
// count fixed at compile time; for any other associativity, or a host
// without SSE2, the out-of-line AccessSlow with a scalar scan and memmove.
// Both orders are the same recency list, so the modeled outcome never
// depends on the path. Access() is AccessFront() then Walk().
//
// A Cache keeps no hit/miss tallies: Access() returns the outcome and the
// caller counts it (the Cpu's PerfCounters are the priced account).

#ifndef SGXBOUNDS_SRC_SIM_CACHE_H_
#define SGXBOUNDS_SRC_SIM_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace sgxb {

// The widest set a Cache takes. Any associativity but 8 and 16 walks with a
// scalar scan and memmove, so a wider set (a 4 GiB single-set cache is
// 2^26 ways) would move its whole row on every miss.
inline constexpr uint32_t kMaxCacheWays = 32;

class Cache {
 public:
  // ways is 1..kMaxCacheWays; size_bytes must be a multiple of line_size *
  // ways; the set count is derived and must be a power of two.
  Cache(uint64_t size_bytes, uint32_t ways);

  // Looks up a line; on miss, inserts it (evicting LRU). Returns true on hit.
  // Out of line: only tests call it; the Cpu walks its levels itself
  // (Cpu::AccessLine).
  bool Access(uint32_t line);

  // Access() of a line found in way 0 or way 1 of its set: true, with a
  // way-1 hit promoted (two lines alternating, as data+metadata
  // interleavings do, swap the two ways). Otherwise false, changing
  // nothing; the caller finishes with Walk().
  bool AccessFront(uint32_t line) {
    uint32_t* base = SetBase(line);
    if (base[0] == line) {
      return true;
    }
    if (base[1] == line) {
      base[1] = base[0];
      base[0] = line;
      return true;
    }
    return false;
  }

  // The row of `line`'s set: ways() line ids, MRU first, 64-byte aligned.
  uint32_t* SetBase(uint32_t line) const {
    return &slots_[static_cast<size_t>(line & set_mask_) * ways_];
  }

  // The exact walk of `line`'s set at `row` (SetBase): promote on hit,
  // evict the LRU way on miss; true on a hit. Defined inline in
  // src/sim/cache_walk.h.
  inline bool Walk(uint32_t line, uint32_t* row);

  // True when `line` is its set's MRU line. Access() on such a line is a hit
  // that changes nothing, so a caller may count the hit and skip the call.
  bool IsMru(uint32_t line) const { return *SetBase(line) == line; }

  // Lookup without allocation or promotion (tests).
  bool Contains(uint32_t line) const;

  // The lines resident in `line`'s set, most recent first (tests compare
  // the full recency order against a reference LRU).
  std::vector<uint32_t> SetOrder(uint32_t line) const;

  // Drops all content (e.g. when an experiment resets the machine).
  void Flush();

  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t ways() const { return ways_; }
  uint32_t sets() const { return sets_; }

  // The raw recency array (sets() rows of ways() line ids, MRU first) and
  // the set-index mask, for decoded IR that probes ways 0 and 1 inline
  // (Enclave::InlineAccessFor). Out of line: defined here, two more inline
  // members changed GCC's inlining in the workload bodies (nm -S sizes).
  uint32_t* slot_array();
  uint32_t set_mask() const;

 private:
  static constexpr uint32_t kInvalidLine = 0xffffffffu;

  // Walk() out of line for the associativities without a fixed-way slide:
  // a scalar scan from way 0.
  bool AccessSlow(uint32_t line, uint32_t* base);

  uint64_t size_bytes_;
  uint32_t ways_;
  uint32_t sets_;
  uint32_t set_mask_;
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
