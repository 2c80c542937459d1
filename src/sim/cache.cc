#include "src/sim/cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/units.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define SGXB_CACHE_SSE2 1
#endif

namespace sgxb {

namespace {

bool IsPowerOfTwo(uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

Cache::Cache(uint64_t size_bytes, uint32_t ways) : size_bytes_(size_bytes), ways_(ways) {
  CHECK_GT(ways, 0u);
  const uint64_t lines = size_bytes / kCacheLineSize;
  CHECK_EQ(lines % ways, 0u);
  const uint64_t sets = lines / ways;
  CHECK(IsPowerOfTwo(static_cast<uint32_t>(sets)));
  sets_ = static_cast<uint32_t>(sets);
  set_mask_ = sets_ - 1;
  // One sentinel slot of padding so the inline way-1 probe in Access() may
  // read base[1] even for a direct-mapped cache's last set. For ways == 1 the
  // probe can never false-positive: a stored line id from another set differs
  // in its set bits, and the sentinel is not a representable line id.
  num_slots_ = static_cast<size_t>(sets_) * ways_ + 1;
  slots_.reset(new (std::align_val_t{64}) uint32_t[num_slots_]);
  Flush();
}

bool Cache::AccessSlow(uint32_t line, uint32_t* base) {
#if SGXB_CACHE_SSE2
  if (ways_ % 4 == 0) {
    // kKeepAbove[k]: all-ones in the lanes above k, which a hit at lane k
    // leaves in place.
    alignas(16) static constexpr int32_t kKeepAbove[4][4] = {
        {0, -1, -1, -1}, {0, 0, -1, -1}, {0, 0, 0, -1}, {0, 0, 0, 0}};
    // One pass: each group slides up one way as it is probed, so when `line`
    // turns up (or never does) every group before it is already promoted.
    // Group 0 re-probes ways 0-1, which Access() saw miss; harmless. With
    // ways a multiple of 4, every set starts a multiple of 16 bytes into the
    // 64-byte-aligned slots, so each group is one aligned load and store.
    const __m128i key = _mm_set1_epi32(static_cast<int>(line));
    __m128i carry = _mm_cvtsi32_si128(static_cast<int>(line));
    for (uint32_t g = 0; g < ways_; g += 4) {
      __m128i* group = reinterpret_cast<__m128i*>(base + g);
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
    // Miss: the slide pushed the LRU way out of the last group.
    return false;
  }
#endif
  // Ways 0 and 1 were probed inline by Access().
  for (uint32_t w = 2; w < ways_; ++w) {
    if (base[w] == line) {
      // Promote to MRU: slide [0, w) down one way.
      std::memmove(base + 1, base, w * sizeof(uint32_t));
      base[0] = line;
      return true;
    }
  }
  // Miss: the last way is the LRU victim by construction.
  std::memmove(base + 1, base, (ways_ - 1) * sizeof(uint32_t));
  base[0] = line;
  return false;
}

bool Cache::Contains(uint32_t line) const {
  const uint32_t* base = SetBase(line);
  return std::find(base, base + ways_, line) != base + ways_;
}

std::vector<uint32_t> Cache::SetOrder(uint32_t line) const {
  const uint32_t* base = SetBase(line);
  std::vector<uint32_t> order;
  for (uint32_t w = 0; w < ways_ && base[w] != kInvalidLine; ++w) {
    order.push_back(base[w]);
  }
  return order;
}

uint32_t* Cache::slot_array() { return slots_.get(); }

uint32_t Cache::set_mask() const { return set_mask_; }

void Cache::Flush() {
  std::fill_n(slots_.get(), num_slots_, kInvalidLine);
}

}  // namespace sgxb
