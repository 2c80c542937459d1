// Reference loop for the host benchmark: how fast this host runs
// simulator-like code right now.
//
// On a shared host the same deterministic job's CPU time drifts by tens of
// percent over tens of seconds, as co-tenants come and go. The loop below is
// a fixed miniature of the simulator's hottest code - set-associative LRU
// tag lookups over a synthetic address stream, its tables in L2 - and it
// lives in the benchmark, so no change under src/ moves its time. Timed on
// the worker thread right before each job, it tracks that drift (its round
// totals correlate ~0.9 with a round's job time), and dividing host times by
// it cancels most of the drift.

#ifndef SGXBOUNDS_HOSTBENCH_REFERENCE_H_
#define SGXBOUNDS_HOSTBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "hostbench/spans.h"

namespace hostbench {

// The reference loop's time on a quiet host of the kind the baseline was
// measured on; host times are reported scaled to it.
constexpr double kReferenceNominalMs = 5.0;

struct ReferenceSample {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;  // thread CPU
};

// Runs the reference loop once on the calling thread and times it.
inline ReferenceSample RunReference() {
  constexpr uint64_t kSets = 1024, kWays = 8;
  thread_local std::vector<uint64_t> tags(kSets * kWays, 0);
  thread_local std::vector<uint8_t> age(kSets * kWays, 0);
  // Untimed pass over the tables, so the job that ran before cannot change
  // how warm they are.
  uint64_t sink = 0;
  for (size_t i = 0; i < tags.size(); ++i) {
    sink += tags[i] + age[i];
  }
  ReferenceSample s;
  const uint64_t w0 = WallNs();
  const uint64_t c0 = ThreadCpuNs();
  uint64_t x = 88172645463325252ull, addr = 0, hits = 0;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Three of four accesses stride to the next line, one jumps anywhere in
    // 16 MiB.
    addr = (x & 3) != 0 ? addr + 64 : (x >> 20) & ((1ull << 24) - 1);
    const uint64_t line = addr >> 6, set = line % kSets, tag = line / kSets;
    uint64_t* t = &tags[set * kWays];
    uint8_t* a = &age[set * kWays];
    int hit = -1, victim = 0;
    for (int k = 0; k < static_cast<int>(kWays); ++k) {
      if (t[k] == tag) {
        hit = k;
      }
      if (a[k] > a[victim]) {
        victim = k;
      }
    }
    const int slot = hit >= 0 ? hit : victim;
    hits += hit >= 0 ? 1 : 0;
    for (uint64_t k = 0; k < kWays; ++k) {
      a[k] += a[k] < 255 ? 1 : 0;
    }
    t[slot] = tag;
    a[slot] = 0;
  }
  s.cpu_ns = ThreadCpuNs() - c0;
  s.wall_ns = WallNs() - w0;
  volatile uint64_t keep = hits + sink;  // keeps the loop's result live
  (void)keep;
  return s;
}

}  // namespace hostbench

#endif  // SGXBOUNDS_HOSTBENCH_REFERENCE_H_
