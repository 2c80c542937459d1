// Cache::Walk, inline: private to src/sim, so that <emmintrin.h> stays out
// of machine.h and the workload units that include it.
//
// SlideWalk<kWays> is one pass over a recency-ordered set, 4 ways per SSE2
// group: load, compare against the line (cmpeq + movemask), and store the
// group slid up one way, its top way carried into the next group's lane 0
// (the line itself enters lane 0 of group 0). A match at lane k blends the
// slid group with the lanes above k kept and stops; no match is a miss, and
// the slide has already dropped the LRU way and put the line in way 0. The
// way count is a template argument, so the groups unroll and a row needs no
// multiply. Keep the early exit: a branchless walk of every group measured
// slower.

#ifndef SGXBOUNDS_SRC_SIM_CACHE_WALK_H_
#define SGXBOUNDS_SRC_SIM_CACHE_WALK_H_

#include <cstdint>

#include "src/sim/cache.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define SGXB_CACHE_SSE2 1
#endif

namespace sgxb {

#if SGXB_CACHE_SSE2

// kKeepAbove[k]: all-ones in the lanes above k, which a hit at lane k leaves
// in place.
alignas(16) inline constexpr int32_t kKeepAbove[4][4] = {
    {0, -1, -1, -1}, {0, 0, -1, -1}, {0, 0, 0, -1}, {0, 0, 0, 0}};

// Promotes `line` to way 0 of the kWays-way set at `row` (rows are 64-byte
// aligned, so each group is one aligned load and store); on a miss, evicts
// the LRU way. True on a hit.
template <uint32_t kWays>
[[gnu::always_inline]] inline bool SlideWalk(uint32_t* row, uint32_t line) {
  static_assert(kWays % 4 == 0, "SlideWalk takes whole 4-way groups");
  const __m128i key = _mm_set1_epi32(static_cast<int>(line));
  __m128i carry = _mm_cvtsi32_si128(static_cast<int>(line));
#pragma GCC unroll 4
  for (uint32_t g = 0; g < kWays; g += 4) {
    __m128i* group = reinterpret_cast<__m128i*>(row + g);
    const __m128i v = _mm_load_si128(group);
    const __m128i shifted = _mm_or_si128(_mm_slli_si128(v, 4), carry);
    // Line ids in a set are unique, so at most one lane matches.
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, key)));
    if (mask != 0) {
      const __m128i keep = _mm_load_si128(reinterpret_cast<const __m128i*>(
          kKeepAbove[__builtin_ctz(static_cast<unsigned>(mask))]));
      _mm_store_si128(group,
                      _mm_or_si128(_mm_and_si128(keep, v), _mm_andnot_si128(keep, shifted)));
      return true;
    }
    _mm_store_si128(group, shifted);
    carry = _mm_srli_si128(v, 12);
  }
  return false;
}

#endif  // SGXB_CACHE_SSE2

[[gnu::always_inline]] inline bool Cache::Walk(uint32_t line, uint32_t* row) {
#if SGXB_CACHE_SSE2
  if (ways_ == 16) {
    return SlideWalk<16>(row, line);
  }
  if (ways_ == 8) {
    return SlideWalk<8>(row, line);
  }
#endif
  return AccessSlow(line, row);
}

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_SIM_CACHE_WALK_H_
