// Seeded decoder fuzz: mutated copies of the two golden traces must load,
// decode and replay without a crash, a hang or an allocation without bound,
// and every event the decoder hands out must lie inside the bounds replay
// relies on.
//
// Mutations: bit flips, inserted and deleted bytes, stretched (over-long but
// value-preserving) varints and truncation of the event stream, plus bit
// flips anywhere in the file image (header and summary included). The
// complete seed's summary hash is re-stamped after an event-stream
// mutation, so the loaders' integrity check passes and the bytes reach the
// decoder. Each case runs LoadTrace, MappedTrace and DecodedTrace, checks the
// decoded events against the bounds (dense cpu ids below the summary's cpu
// count, the Cpus they make replay build inside kMaxReplayCpuBytes, page
// ranges inside the 2^20-page space, every access replay makes inside
// [0, 4 GiB)), then replays under the header's machine when the decode
// expands to no more line touches than the seed's: a crafted loop count can
// describe an honest but very long run, which no decoder bound can tell
// apart from a real one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/machine.h"
#include "src/trace/decoded_trace.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_replay.h"

#ifndef SGXB_GOLDEN_TRACE_DIR
#error "build must define SGXB_GOLDEN_TRACE_DIR"
#endif

namespace sgxb {
namespace {

// Cases per seed. A replay of the complete seed walks ~2.2M accesses, so it
// gets fewer cases than the prefix, whose replays are cheap.
constexpr int kCompleteCases = 400;
constexpr int kPrefixCases = 1600;

constexpr __int128 kAddressSpace = __int128{1} << 32;
constexpr uint64_t kPageSpace = (uint64_t{1} << 32) / kPageSize;

// The accesses replay makes for one iteration of a loop phase: a run, or a
// single access when the phase's count is below 2.
uint64_t PhaseAccesses(const LoopPhase& ph) { return std::max<uint64_t>(ph.count, 1); }

// An upper bound on the cache lines `count` accesses of `size` bytes touch
// (a zero-size access still costs its iteration).
unsigned __int128 LineTouches(uint64_t count, uint32_t size) {
  return static_cast<unsigned __int128>(count) * ((size >> 6) + 2);
}

// The replay cost of a decode in line touches, saturating at 2^64 - 1: what
// the fuzz compares with the seed's before it replays a mutant.
uint64_t Expansion(const DecodedTrace& t) {
  constexpr unsigned __int128 kCap = ~uint64_t{0};
  unsigned __int128 total = 0;
  const auto add = [&](unsigned __int128 n) {
    total = std::min(total + std::min(n, kCap), kCap);
  };
  for (const DecodedEvent& ev : t.events()) {
    if (ev.kind == TraceEventKind::kAccess || ev.kind == TraceEventKind::kAccessRun) {
      add(LineTouches(ev.count, ev.size));
    } else if (ev.kind == TraceEventKind::kControl &&
               static_cast<ControlSub>(ev.sub) == ControlSub::kLoopRun) {
      unsigned __int128 per_iter = 0;
      for (uint32_t j = 0; j < ev.period; ++j) {
        const LoopPhase& ph = t.phases(ev.aux)[j];
        per_iter += LineTouches(PhaseAccesses(ph), ph.size);
      }
      add(std::min(per_iter, kCap) * ev.count);
    }
  }
  return static_cast<uint64_t>(total);
}

bool RunInSpace(__int128 first, int64_t stride, uint64_t count, uint32_t size) {
  if (count == 0) {
    return true;
  }
  const __int128 last = first + static_cast<__int128>(stride) * (count - 1);
  for (const __int128 a : {first, last}) {
    if (a < 0 || a >= kAddressSpace || a + size > kAddressSpace) {
      return false;
    }
  }
  return true;
}

// The bounds replay relies on, checked independently of the decoder: empty
// when every event keeps them, else the first one that does not.
std::string OutOfBounds(const DecodedTrace& t) {
  uint32_t max_cpu = 0;
  for (size_t i = 0; i < t.events().size(); ++i) {
    const DecodedEvent& ev = t.events()[i];
    const std::string where = "event #" + std::to_string(i) + ": ";
    const bool enters_cpu =
        (ev.kind == TraceEventKind::kParallel &&
         static_cast<ParallelSub>(ev.sub) == ParallelSub::kWorkerBegin) ||
        (ev.kind == TraceEventKind::kControl &&
         static_cast<ControlSub>(ev.sub) == ControlSub::kSwitchCpu);
    if (enters_cpu) {
      if (ev.cpu > max_cpu + 1 || ev.cpu >= t.summary().cpu_count) {
        return where + "cpu " + std::to_string(ev.cpu) + " after highest " +
               std::to_string(max_cpu) + " of " + std::to_string(t.summary().cpu_count);
      }
      max_cpu = std::max(max_cpu, ev.cpu);
      if ((uint64_t{max_cpu} + 1) * CpuFootprintBytes(t.header().sim) > kMaxReplayCpuBytes) {
        return where + "cpu " + std::to_string(ev.cpu) + ": replay's Cpus exceed " +
               std::to_string(kMaxReplayCpuBytes) + " bytes";
      }
    }
    if ((ev.kind == TraceEventKind::kCommit || ev.kind == TraceEventKind::kDecommit) &&
        (ev.page > kPageSpace || ev.count > kPageSpace - ev.page)) {
      return where + "pages [" + std::to_string(ev.page) + ", +" + std::to_string(ev.count) +
             ") past the page space";
    }
    if ((ev.kind == TraceEventKind::kAccess || ev.kind == TraceEventKind::kAccessRun) &&
        !RunInSpace(ev.addr, ev.stride, ev.count, ev.size)) {
      return where + "access run leaves the address space";
    }
    if (ev.kind == TraceEventKind::kControl &&
        static_cast<ControlSub>(ev.sub) == ControlSub::kLoopRun) {
      const uint64_t last_iter = ev.count == 0 ? 0 : ev.count - 1;
      for (uint32_t j = 0; j < ev.period; ++j) {
        const LoopPhase& ph = t.phases(ev.aux)[j];
        const __int128 last_base = ph.addr + static_cast<__int128>(ph.iter_delta) * last_iter;
        if (!RunInSpace(ph.addr, ph.stride, PhaseAccesses(ph), ph.size) ||
            !RunInSpace(last_base, ph.stride, PhaseAccesses(ph), ph.size)) {
          return where + "loop phase " + std::to_string(j) + " leaves the address space";
        }
      }
    }
  }
  return "";
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

enum Mutation { kFlip, kInsert, kDelete, kStretch, kTruncate, kFileFlip, kMutations };
const char* const kMutationNames[] = {"flip",    "insert",   "delete",
                                      "stretch", "truncate", "file-flip"};

// Applies `m` to a copy of the event stream (kFileFlip leaves it alone).
std::vector<uint8_t> MutateEvents(std::vector<uint8_t> ev, Mutation m, Rng& rng) {
  if (ev.empty()) {
    return ev;
  }
  const auto pos = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  switch (m) {
    case kFlip:
      for (uint64_t n = 1 + rng.NextBounded(3); n > 0; --n) {
        ev[pos(ev.size())] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    case kInsert: {
      std::vector<uint8_t> bytes(1 + rng.NextBounded(4));
      for (uint8_t& b : bytes) {
        b = static_cast<uint8_t>(rng.Next());
      }
      const size_t at = pos(ev.size() + 1);
      ev.insert(ev.begin() + static_cast<std::ptrdiff_t>(at), bytes.begin(), bytes.end());
      break;
    }
    case kDelete: {
      const size_t at = pos(ev.size());
      const size_t n = std::min<size_t>(1 + rng.NextBounded(4), ev.size() - at);
      ev.erase(ev.begin() + static_cast<std::ptrdiff_t>(at),
               ev.begin() + static_cast<std::ptrdiff_t>(at + n));
      break;
    }
    case kStretch: {
      // A byte without the continuation bit, re-encoded with 1..12 extra
      // bytes: the same value when it ended a varint, which the decoder must
      // take without shifting past 64 bits.
      size_t at = pos(ev.size());
      for (size_t tries = 0; tries < ev.size() && ev[at] >= 0x80; ++tries) {
        at = (at + 1) % ev.size();
      }
      const size_t extra = 1 + rng.NextBounded(12);
      ev[at] |= 0x80;
      std::vector<uint8_t> tail(extra, 0x80);
      tail.back() = 0x00;
      ev.insert(ev.begin() + static_cast<std::ptrdiff_t>(at + 1), tail.begin(), tail.end());
      break;
    }
    case kTruncate:
      ev.resize(pos(ev.size()));
      break;
    case kFileFlip:
    case kMutations:
      break;
  }
  return ev;
}

struct FuzzStats {
  int loaded = 0;
  int rejected_file = 0;
  int stopped_short = 0;  // complete traces whose decode is not whole()
  int replayed = 0;
};

void FuzzSeed(const char* file, uint64_t seed, int cases, FuzzStats* stats) {
  const std::string seed_path = std::string(SGXB_GOLDEN_TRACE_DIR) + "/" + file;
  Trace base;
  std::string error;
  ASSERT_TRUE(LoadTrace(seed_path, &base, &error)) << error;
  const DecodedTrace base_decoded(base);
  ASSERT_TRUE(base_decoded.whole()) << file;
  ASSERT_EQ(OutOfBounds(base_decoded), "") << file;
  const uint64_t budget = Expansion(base_decoded);
  const bool complete = base.summary.truncated == 0;

  const std::string path = ::testing::TempDir() + "trace_fuzz_case.sgxtrace";
  Rng rng(seed);
  for (int c = 0; c < cases; ++c) {
    const Mutation m = static_cast<Mutation>(rng.NextBounded(kMutations));
    const std::string what = std::string(file) + " case " + std::to_string(c) + " (" +
                             kMutationNames[m] + ")";
    Trace t = base;
    t.events = MutateEvents(base.events, m, rng);
    if (complete) {
      t.summary.stream_hash = FnvUpdate(kFnvOffset, t.events.data(), t.events.size());
    }
    ASSERT_TRUE(SaveTrace(t, path, &error)) << error;
    if (m == kFileFlip) {
      std::vector<uint8_t> image = ReadBytes(path);
      image[rng.NextBounded(image.size())] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      WriteBytes(path, image);
    }

    Trace loaded;
    std::string load_error, map_error;
    const bool load_ok = LoadTrace(path, &loaded, &load_error);
    MappedTrace mapped;
    const bool map_ok = mapped.Load(path, &map_error);
    ASSERT_EQ(load_ok, map_ok) << what << ": " << load_error << " / " << map_error;
    if (!load_ok) {
      EXPECT_EQ(load_error, map_error) << what;
      EXPECT_FALSE(load_error.empty()) << what;
      ++stats->rejected_file;
      continue;
    }
    ++stats->loaded;
    ASSERT_TRUE(std::equal(loaded.events.begin(), loaded.events.end(), mapped.events_begin(),
                           mapped.events_end()))
        << what;

    const DecodedTrace decoded(loaded);
    const DecodedTrace from_map(mapped.header(), mapped.summary(), mapped.events_begin(),
                                mapped.events_end());
    ASSERT_EQ(decoded.event_count(), from_map.event_count()) << what;
    ASSERT_EQ(decoded.whole(), from_map.whole()) << what;
    // Fatal, so a decoder that lets an event through is never replayed.
    ASSERT_EQ(OutOfBounds(decoded), "") << what;
    if (loaded.summary.truncated == 0 && !decoded.whole()) {
      ++stats->stopped_short;
    }
    if (m == kTruncate && complete && t.events.size() < base.events.size()) {
      EXPECT_FALSE(decoded.whole()) << what << ": a cut stream has no end marker";
    }
    if (Expansion(decoded) <= budget) {
      const ReplayResult r = ReplayDecoded(decoded, SimConfigFromHeader(decoded.header()));
      EXPECT_EQ(r.events_replayed, decoded.event_count()) << what;
      ++stats->replayed;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFuzz, MutatedGoldensDecodeInsideTheirBoundsAndReplay) {
  const int cases = kCompleteCases + kPrefixCases;
  FuzzStats stats;
  FuzzSeed("linear_regression_xs_t2.sgxtrace", 0x7ace5eed0001, kCompleteCases, &stats);
  FuzzSeed("kmeans_xs_sgxbounds.sgxtrace", 0x7ace5eed0002, kPrefixCases, &stats);
  std::printf("[fuzz] %d cases: %d loaded (%d rejected at load), %d complete streams "
              "stopped short of their end, %d replayed\n",
              cases, stats.loaded, stats.rejected_file, stats.stopped_short,
              stats.replayed);
  // The mutations must mostly reach the decoder and the replay, or the fuzz
  // checks nothing.
  EXPECT_GT(stats.loaded, cases / 2);
  EXPECT_GT(stats.replayed, cases / 2);
  EXPECT_GT(stats.stopped_short, 0);
}

}  // namespace
}  // namespace sgxb
