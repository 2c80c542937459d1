// Tests for src/common: PRNG determinism and distributions, statistics,
// table rendering, flag parsing, the zero-filled page tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/digest.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/common/zeroed_table.h"

namespace sgxb {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(17);
  uint64_t low_ranks = 0;
  const uint64_t n = 1000;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t r = rng.NextZipf(n, 0.9);
    EXPECT_LT(r, n);
    if (r < n / 10) {
      ++low_ranks;
    }
  }
  // Zipf(0.9): the top decile should receive well over half the draws.
  EXPECT_GT(low_ranks, 5000u);
}

TEST(RngTest, NextKeyHasRequestedLength) {
  Rng rng(23);
  const std::string key = rng.NextKey(16);
  EXPECT_EQ(key.size(), 16u);
  for (char c : key) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(StatsTest, RunningStatBasics) {
  RunningStat s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-12);
}

TEST(StatsTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
  EXPECT_NEAR(GeoMean({1.17, 1.17, 1.17}), 1.17, 1e-12);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
}

TEST(StatsTest, Formatters) {
  EXPECT_EQ(FormatRatio(1.175), "1.18x");
  EXPECT_EQ(FormatOverheadPercent(1.17), "+17.0%");
  EXPECT_EQ(FormatBytes(71 * kMiB), "71.0 MB");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

TEST(TableTest, RendersAlignedRows) {
  Table t({"bench", "SGX", "SGXBounds"});
  t.AddRow({"kmeans", "1.00x", "1.17x"});
  t.AddSeparator();
  t.AddRow({"gmean", "1.00x", "1.17x"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("kmeans"), std::string::npos);
  EXPECT_NE(out.find("1.17x"), std::string::npos);
  // Header separator plus separator row -> at least 4 horizontal rules.
  size_t rules = 0;
  for (size_t pos = out.find('+'); pos != std::string::npos; pos = out.find('+', pos + 1)) {
    if (pos == 0 || out[pos - 1] == '\n') {
      ++rules;
    }
  }
  EXPECT_GE(rules, 4u);
}

TEST(FlagsTest, ParsesTypedFlags) {
  FlagParser parser;
  int64_t threads = 1;
  uint64_t epc = 0;
  double theta = 0.0;
  bool verbose = false;
  std::string name;
  parser.AddInt("threads", &threads, "");
  parser.AddUint("epc", &epc, "");
  parser.AddDouble("theta", &theta, "");
  parser.AddBool("verbose", &verbose, "");
  parser.AddString("name", &name, "");

  const char* argv[] = {"prog",      "--threads=8", "--epc", "94", "--theta=0.99",
                        "--verbose", "--name=fig7", "pos"};
  auto positional = parser.Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(threads, 8);
  EXPECT_EQ(epc, 94u);
  EXPECT_DOUBLE_EQ(theta, 0.99);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "fig7");
  ASSERT_EQ(positional.size(), 1u);
  EXPECT_EQ(positional[0], "pos");
}

// Parses one `--name=value` argument into a fresh parser with one flag of
// each numeric kind.
void ParseOneNumericFlag(const std::string& arg) {
  FlagParser parser;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  parser.AddInt("i", &i, "");
  parser.AddUint("u", &u, "");
  parser.AddDouble("d", &d, "");
  const char* argv[] = {"prog", arg.c_str()};
  parser.Parse(2, const_cast<char**>(argv));
}

TEST(FlagsTest, RejectsMalformedNumericValues) {
  // Each of these used to parse: empty as 0, "-1" as 2^64-1 for unsigned,
  // out-of-range values saturated, and doubles that are not finite.
  for (const char* arg :
       {"--u=-1", "--u=", "--i=", "--d=", "--u=99999999999999999999999",
        "--i=99999999999999999999999", "--i=-99999999999999999999999", "--d=nan",
        "--d=inf", "--d=-inf", "--d=1e999", "--u=12abc", "--u= -3"}) {
    EXPECT_EXIT(ParseOneNumericFlag(arg), ::testing::ExitedWithCode(2), "invalid value")
        << arg;
  }
  // Numeric CSV lists (--epc_mibs, --fault_rates, --shards, ...) follow the
  // same rules per item, plus the flag's range; the message names the flag.
  for (const char* csv : {"-1", "abc", "1,,x", "", "18446744073709551616", "5,0", "8,4097"}) {
    EXPECT_EXIT(ParseU64List(csv, "epc_mibs", 1, 4096), ::testing::ExitedWithCode(2),
                "--epc_mibs")
        << csv;
  }
}

TEST(FlagsTest, ParsesNumericLists) {
  EXPECT_EQ(ParseU64List("8,32,94", "epc_mibs", 1, 4096), (std::vector<uint64_t>{8, 32, 94}));
  EXPECT_EQ(ParseU64List("0", "fault_rates", 0, 100), (std::vector<uint64_t>{0}));
  EXPECT_EQ(ParseU64List("4096", "epc_mibs", 1, 4096), (std::vector<uint64_t>{4096}));
}

TEST(FlagsTest, AcceptsNumericEdgeValues) {
  FlagParser parser;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  parser.AddInt("i", &i, "");
  parser.AddUint("u", &u, "");
  parser.AddDouble("d", &d, "");
  const char* argv[] = {"prog", "--i=-9223372036854775808", "--u=18446744073709551615",
                        "--d=-0.5"};
  parser.Parse(4, const_cast<char**>(argv));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_DOUBLE_EQ(d, -0.5);
}

TEST(LatencyHistogramTest, EmptyAndExactZeroBucket) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Add(0, 5);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogramTest, QuantileRelativeErrorWithinTwoPercent) {
  // Lognormal-ish latency stream from the house PRNG; exact quantiles via
  // Percentile, sketched quantiles must land within the advertised 2%.
  Rng rng(7);
  LatencyHistogram h;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = 100 + rng.NextBounded(1000) * rng.NextBounded(1000);
    h.Add(v);
    samples.push_back(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    // Exact order statistic at the sketch's own rank definition
    // (ceil(q * count)-th smallest); the sketch may only add bucket error.
    const size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
    const double want = static_cast<double>(samples[rank == 0 ? 0 : rank - 1]);
    const double got = h.Quantile(q);
    EXPECT_NEAR(got, want, want * 0.02) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantilesClampedToObservedRange) {
  LatencyHistogram h;
  h.Add(1000);
  h.Add(1001);
  EXPECT_GE(h.Quantile(0.0), 1000.0);
  EXPECT_LE(h.Quantile(1.0), 1001.0);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedStream) {
  Rng rng(11);
  LatencyHistogram whole, left, right;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextBounded(1u << 20);
    whole.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_EQ(left.Digest(), whole.Digest());
  EXPECT_EQ(left.P99(), whole.P99());
}

TEST(LatencyHistogramTest, AddWithCountMatchesRepeatedAdd) {
  LatencyHistogram a, b;
  a.Add(777, 42);
  for (int i = 0; i < 42; ++i) {
    b.Add(777);
  }
  EXPECT_EQ(a.Digest(), b.Digest());
}

// Pins the one FNV-1a helper: the published FNV-1a 64 vectors for byte
// spans, and the word mix as the little-endian bytes of the word. Every
// stream hash, config id and farm/sweep/histogram digest goes through it.
TEST(DigestTest, FnvOutputIsPinned) {
  EXPECT_EQ(FnvUpdate(kFnvOffset, nullptr, 0), 0xcbf29ce484222325ull);
  const uint8_t a[] = {'a'};
  EXPECT_EQ(FnvUpdate(kFnvOffset, a, sizeof(a)), 0xaf63dc4c8601ec8cull);
  const uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(FnvUpdate(kFnvOffset, foobar, sizeof(foobar)), 0x85944171f73967e8ull);

  const uint64_t word = 0x0123456789abcdefull;
  const uint8_t le[] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(FnvMix(kFnvOffset, word), 0x37eb3f3347761c55ull);
  EXPECT_EQ(FnvMix(kFnvOffset, word), FnvUpdate(kFnvOffset, le, sizeof(le)));
  EXPECT_EQ(FnvMix(kLegacyDigestSeed, 42), 0xe13798d64f1352c9ull);
}

TEST(UnitsTest, AlignAndPageHelpers) {
  EXPECT_EQ(AlignUp(1u, 16u), 16u);
  EXPECT_EQ(AlignUp(16u, 16u), 16u);
  EXPECT_EQ(PagesFor(1), 1u);
  EXPECT_EQ(PagesFor(kPageSize), 1u);
  EXPECT_EQ(PagesFor(kPageSize + 1), 2u);
  EXPECT_EQ(PageOf(kPageSize), 1u);
  EXPECT_EQ(LineOf(64), 1u);
}

// Entries start zero and keep what is written, up to the last one; one
// past the end is the guard page, so the read faults in every build, not
// only under a sanitizer. The sizes end a table on a page boundary (the
// page manager's 2^20 bytes) and mid-page.
TEST(ZeroedTableDeathTest, OnePastTheEndFaults) {
  for (const size_t size : {size_t{1} << 20, size_t{100}}) {
    ZeroedTable<uint8_t> table(size);
    EXPECT_EQ(table[0], 0u);
    EXPECT_EQ(table[size - 1], 0u);
    table[size - 1] = 7;
    EXPECT_EQ(table[size - 1], 7u);
    EXPECT_DEATH(
        {
          const volatile uint8_t* past = table.data() + size;
          std::printf("%u\n", static_cast<unsigned>(*past));
        },
        "")
        << size;
  }
  ZeroedTable<uint64_t> wide(3);
  EXPECT_DEATH(
      {
        const volatile uint64_t* past = wide.data() + 3;
        std::printf("%llu\n", static_cast<unsigned long long>(*past));
      },
      "");
}

}  // namespace
}  // namespace sgxb
