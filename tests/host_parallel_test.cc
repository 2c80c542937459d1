// Tests for the host-parallel bench dispatcher: ParallelFor must cover every
// index exactly once, propagate exceptions, and — the property the bench
// drivers rely on — produce bit-identical simulation results regardless of
// the host thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/common/host_parallel.h"
#include "src/policy/registry.h"
#include "src/workloads/workload.h"

namespace sgxb {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t n : {100u, 257u}) {  // 257: an odd size, not a multiple of any count
    for (uint32_t threads : {1u, 2u, 4u, 7u, 16u}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(hits.size(), threads, [&](size_t i) { ++hits[i]; });
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n << ", threads " << threads;
      }
    }
  }
}

// The sweep engine's case: the first indices hold nearly all the cost (full
// replays next to microsecond re-pricings). Every index must still run
// exactly once while the other workers drain the cheap tail.
TEST(ParallelForTest, CoversSkewedCostsExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  std::atomic<uint64_t> sink{0};
  ParallelFor(hits.size(), 8, [&](size_t i) {
    ++hits[i];
    if (i < 8) {
      uint64_t acc = 0;
      for (uint64_t k = 0; k < 2000000; ++k) {
        acc += k * i;
      }
      sink += acc;
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroJobsIsANoop) {
  ParallelFor(0, 4, [&](size_t) { FAIL(); });
}

TEST(ParallelForTest, PropagatesWorkerException) {
  EXPECT_THROW(
      ParallelFor(8, 4,
                  [&](size_t i) {
                    if (i == 3) {
                      throw std::runtime_error("boom");
                    }
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, HostHardwareThreadsIsPositive) {
  EXPECT_GE(HostHardwareThreads(), 1u);
}

// --- determinism across thread counts ---------------------------------------

MachineSpec TinySpec() {
  MachineSpec spec;
  spec.space_bytes = 2 * kGiB;
  spec.heap_reserve = 1 * kGiB;
  spec.epc_bytes = 94 * kMiB;
  return spec;
}

// Every field a bench table is derived from.
void ExpectSameResult(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.peak_vm_bytes, b.peak_vm_bytes) << label;
  EXPECT_EQ(a.crashed, b.crashed) << label;
  EXPECT_EQ(a.counters.instructions(), b.counters.instructions()) << label;
  EXPECT_EQ(a.counters.l1_misses, b.counters.l1_misses) << label;
  EXPECT_EQ(a.counters.llc_misses, b.counters.llc_misses) << label;
  EXPECT_EQ(a.counters.epc_faults, b.counters.epc_faults) << label;
  EXPECT_EQ(a.counters.bounds_checks, b.counters.bounds_checks) << label;
  EXPECT_EQ(a.mpx_bt_count, b.mpx_bt_count) << label;
}

// The fig drivers fan (workload, policy) jobs across host threads. Each run
// owns its machine, so results collected by job index must match a serial
// run exactly — this is the invariant that keeps every printed table
// byte-identical under any --bench_threads value.
TEST(ParallelForTest, SimulationResultsIdenticalAcrossThreadCounts) {
  auto& reg = WorkloadRegistry::Instance();
  const std::vector<const WorkloadInfo*> workloads = {reg.Find("histogram"),
                                                      reg.Find("matrixmul")};
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 2;

  std::vector<std::pair<const WorkloadInfo*, PolicyKind>> jobs;
  for (const WorkloadInfo* w : workloads) {
    ASSERT_NE(w, nullptr);
    for (const SchemeDescriptor* scheme : PaperSchemes()) {
      jobs.emplace_back(w, scheme->kind);
    }
  }

  auto run_suite = [&](uint32_t threads) {
    std::vector<RunResult> out(jobs.size());
    ParallelFor(jobs.size(), threads, [&](size_t i) {
      out[i] = jobs[i].first->run(jobs[i].second, TinySpec(), PolicyOptions{}, cfg);
    });
    return out;
  };

  const std::vector<RunResult> serial = run_suite(1);
  const std::vector<RunResult> parallel = run_suite(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameResult(serial[i], parallel[i],
                     jobs[i].first->name + "/" + PolicyName(jobs[i].second));
  }
}

}  // namespace
}  // namespace sgxb
