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
// replacement state. Access() probes ways 0 and 1 inline. The rest of the
// set goes to AccessSlow, which, when ways is a multiple of 4 and the host
// has SSE2, walks the set once, 4 ways at a time: each group is loaded,
// compared against the line (cmpeq + movemask) and stored back slid up one
// way, its top way carried into the next group's lane 0. A match at lane k
// blends the slid group with the lanes above k kept and stops; no match in
// any group is a miss, and the slide has already dropped the LRU way and put
// the line in way 0. Any other associativity takes a plain scalar scan. Both
// orders are the same recency list, so the modeled outcome never depends on
// the path.
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

class Cache {
 public:
  // size_bytes must be a multiple of line_size * ways; the set count is
  // derived and must be a power of two.
  Cache(uint64_t size_bytes, uint32_t ways);

  // Looks up a line; on miss, inserts it (evicting LRU). Returns true on hit.
  bool Access(uint32_t line) {
    uint32_t* base = SetBase(line);
    if (base[0] == line) {  // MRU fast path: repeated hot-line access
      return true;
    }
    if (base[1] == line) {  // way-1 fast path: two lines alternating
      base[1] = base[0];    // (data+metadata interleavings make this common)
      base[0] = line;
      return true;
    }
    return AccessSlow(line, base);
  }

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

  uint32_t* SetBase(uint32_t line) const {
    return &slots_[static_cast<size_t>(line & set_mask_) * ways_];
  }
  // Scan beyond ways 0-1 (probed inline); promote on hit, evict the LRU way
  // on miss.
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
