// Tests for the set-associative cache model.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/units.h"
#include "src/sim/cache.h"

namespace sgxb {
namespace {

// A Cache keeps no tallies; tests count Access() outcomes themselves.
struct Tally {
  uint64_t hits = 0;
  uint64_t misses = 0;

  bool Access(Cache& c, uint32_t line) {
    const bool hit = c.Access(line);
    ++(hit ? hits : misses);
    return hit;
  }
};

TEST(CacheTest, GeometryDerivedFromSizeAndWays) {
  Cache c(32 * kKiB, 8);
  EXPECT_EQ(c.sets(), 32u * 1024 / 64 / 8);
  EXPECT_EQ(c.ways(), 8u);
}

TEST(CacheTest, MissThenHit) {
  Cache c(32 * kKiB, 8);
  Tally t;
  EXPECT_FALSE(t.Access(c, 100));
  EXPECT_TRUE(t.Access(c, 100));
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.hits, 1u);
}

TEST(CacheTest, LruEvictionWithinSet) {
  Cache c(32 * kKiB, 8);  // 64 sets
  const uint32_t sets = c.sets();
  // Fill one set with 8 distinct lines, then a 9th evicts the LRU (first).
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(c.Access(i * sets));
  }
  // Touch line 0 to make line 1*sets the LRU.
  EXPECT_TRUE(c.Access(0));
  EXPECT_FALSE(c.Access(8 * sets));   // evicts 1*sets
  EXPECT_TRUE(c.Access(0));           // still resident
  EXPECT_FALSE(c.Access(1 * sets));   // was evicted
}

TEST(CacheTest, ContainsDoesNotAllocate) {
  Cache c(32 * kKiB, 8);
  EXPECT_FALSE(c.Contains(5));
  EXPECT_FALSE(c.Contains(5));
  EXPECT_FALSE(c.Access(5));  // still a miss: Contains allocated nothing
  EXPECT_TRUE(c.Contains(5));
}

TEST(CacheTest, FlushEmptiesCache) {
  Cache c(32 * kKiB, 8);
  c.Access(1);
  c.Access(2);
  c.Flush();
  EXPECT_FALSE(c.Contains(1));
  EXPECT_FALSE(c.Contains(2));
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes) {
  Cache c(32 * kKiB, 8);
  const uint32_t lines = static_cast<uint32_t>(32 * kKiB / kCacheLineSize);
  // Two sequential sweeps over 4x the capacity: second sweep still misses.
  Tally t;
  uint64_t misses_after_first;
  for (uint32_t i = 0; i < 4 * lines; ++i) {
    t.Access(c, i);
  }
  misses_after_first = t.misses;
  for (uint32_t i = 0; i < 4 * lines; ++i) {
    t.Access(c, i);
  }
  EXPECT_EQ(t.misses, 2 * misses_after_first);
}

TEST(CacheTest, RepeatedLineUsesMruFastPath) {
  Cache c(32 * kKiB, 8);
  Tally t;
  EXPECT_FALSE(t.Access(c, 7));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(c.IsMru(7));
    EXPECT_TRUE(t.Access(c, 7));
  }
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.hits, 100u);
}

TEST(CacheTest, AlternatingTwoLinesHitAfterFirstMisses) {
  // Two lines mapping to the same set, accessed alternately (the data +
  // metadata interleaving pattern the way-1 fast path exists for): both miss
  // once, then every access hits.
  Cache c(32 * kKiB, 8);
  const uint32_t sets = c.sets();
  Tally t;
  EXPECT_FALSE(t.Access(c, 0));
  EXPECT_FALSE(t.Access(c, sets));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(t.Access(c, 0));
    EXPECT_TRUE(t.Access(c, sets));
  }
  EXPECT_EQ(t.misses, 2u);
  EXPECT_EQ(t.hits, 100u);
}

TEST(CacheTest, AlternationDoesNotDisturbLruOrderOfOtherWays) {
  Cache c(32 * kKiB, 8);  // 64 sets, 8 ways
  const uint32_t sets = c.sets();
  // Fill one set: lines 0..7*sets, LRU order oldest-first.
  for (uint32_t i = 0; i < 8; ++i) {
    c.Access(i * sets);
  }
  // Heavy alternation between the two newest lines (ways 0/1 fast path).
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(c.Access(7 * sets));
    EXPECT_TRUE(c.Access(6 * sets));
  }
  // A new line must evict line 0 (still the LRU), not the alternating pair.
  EXPECT_FALSE(c.Access(8 * sets));
  EXPECT_FALSE(c.Contains(0));
  EXPECT_TRUE(c.Contains(6 * sets));
  EXPECT_TRUE(c.Contains(7 * sets));
  EXPECT_TRUE(c.Contains(1 * sets));
}

// Reference model: exact LRU as a per-set move-to-front list, with none of
// the Cache class's fast paths. The Cache must agree with it access for
// access, for every associativity including direct-mapped (ways == 1, which
// exercises the sentinel slot guarding the inline way-1 probe).
class RefLru {
 public:
  RefLru(uint32_t sets, uint32_t ways) : ways_(ways), sets_(sets) {}

  // The set's lines, MRU first.
  const std::vector<uint32_t>& Set(uint32_t line) const { return sets_[line % sets_.size()]; }

  bool Access(uint32_t line) {
    auto& set = sets_[line % sets_.size()];
    for (size_t i = 0; i < set.size(); ++i) {
      if (set[i] == line) {
        set.erase(set.begin() + i);
        set.insert(set.begin(), line);
        return true;
      }
    }
    set.insert(set.begin(), line);
    if (set.size() > ways_) {
      set.pop_back();
    }
    return false;
  }

 private:
  uint32_t ways_;
  std::vector<std::vector<uint32_t>> sets_;
};

TEST(CacheTest, MatchesReferenceLruOnScrambledTrace) {
  // Multiples of 4 take the SSE2 probe with 1 to 8 four-way groups; the rest
  // (and every size on hosts without SSE2) take the scalar loop.
  for (uint32_t ways : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 20u, 32u}) {
    const uint32_t sets = 16;
    Cache c(static_cast<uint64_t>(sets) * ways * kCacheLineSize, ways);
    ASSERT_EQ(c.sets(), sets);
    RefLru ref(sets, ways);
    uint32_t x = 12345;
    const uint32_t range = sets * ways * 2;
    for (int i = 0; i < 30000; ++i) {
      x = x * 1664525u + 1013904223u;  // LCG; mix of conflicts and repeats
      const uint32_t line = (x >> 8) % range;
      const bool hit = c.Access(line);
      ASSERT_EQ(hit, ref.Access(line)) << "ways=" << ways << " step=" << i;
      ASSERT_EQ(c.SetOrder(line), ref.Set(line)) << "ways=" << ways << " step=" << i;
      if (i % 100 == 0) {
        for (uint32_t l = 0; l < range; ++l) {
          const auto& set = ref.Set(l);
          const bool resident = std::find(set.begin(), set.end(), l) != set.end();
          ASSERT_EQ(c.Contains(l), resident) << "ways=" << ways << " step=" << i << " line=" << l;
        }
      }
    }
  }
}

TEST(CacheTest, WorkingSetSmallerThanCacheHitsOnReuse) {
  Cache c(32 * kKiB, 8);
  const uint32_t lines = static_cast<uint32_t>(32 * kKiB / kCacheLineSize) / 2;
  Tally t;
  for (uint32_t i = 0; i < lines; ++i) {
    t.Access(c, i);
  }
  const uint64_t misses = t.misses;
  for (uint32_t i = 0; i < lines; ++i) {
    t.Access(c, i);
  }
  EXPECT_EQ(t.misses, misses);  // all hits on the second sweep
}

TEST(CacheTest, IsMruIsWayZeroOfTheSet) {
  // IsMru must name exactly the reference LRU's most recent line of each set,
  // for a line just accessed and for every other line in range.
  for (uint32_t ways : {1u, 2u, 4u, 8u, 12u}) {
    const uint32_t sets = 8;
    Cache c(static_cast<uint64_t>(sets) * ways * kCacheLineSize, ways);
    RefLru ref(sets, ways);
    const uint32_t range = sets * ways * 2;
    for (uint32_t l = 0; l < range; ++l) {
      ASSERT_FALSE(c.IsMru(l)) << "ways=" << ways << " line=" << l;  // empty cache
    }
    uint32_t x = 777;
    for (int i = 0; i < 3000; ++i) {
      x = x * 1664525u + 1013904223u;
      const uint32_t line = (x >> 8) % range;
      c.Access(line);
      ref.Access(line);
      ASSERT_TRUE(c.IsMru(line)) << "ways=" << ways << " step=" << i;
      if (i % 50 == 0) {
        for (uint32_t l = 0; l < range; ++l) {
          const auto& set = ref.Set(l);
          ASSERT_EQ(c.IsMru(l), !set.empty() && set.front() == l)
              << "ways=" << ways << " step=" << i << " line=" << l;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sgxb
