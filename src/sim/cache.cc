#include "src/sim/cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/sim/cache_walk.h"

namespace sgxb {

namespace {

bool IsPowerOfTwo(uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

Cache::Cache(uint64_t size_bytes, uint32_t ways) : size_bytes_(size_bytes), ways_(ways) {
  CHECK_GT(ways, 0u);
  CHECK_LE(ways, kMaxCacheWays);
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

bool Cache::Access(uint32_t line) { return AccessFront(line) || Walk(line, SetBase(line)); }

bool Cache::AccessSlow(uint32_t line, uint32_t* base) {
  for (uint32_t w = 0; w < ways_; ++w) {
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
