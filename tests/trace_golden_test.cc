// Golden-trace regression: two checked-in recordings are re-recorded and
// compared byte for byte as files, header and summary included:
//   kmeans_xs_sgxbounds.sgxtrace      the first 2048 events of kmeans/XS
//                                     under SGXBounds (a truncated prefix);
//   linear_regression_xs_t2.sgxtrace  the whole of linear_regression/XS under
//                                     SGXBounds on 2 simulated threads: every
//                                     event kind a parallel workload emits
//                                     (access runs, loop runs, cpu switches
//                                     by worker) and a complete summary.
// Any change to a workload's access sequence, the instrumentation's memory
// behaviour, the machine defaults or the file format fails this test LOUDLY,
// with a decoded event-level diff of the first divergences.
//
// If the change is intentional (new encoding, deliberate behaviour change),
// regenerate with:
//   trace_tool record --workload=kmeans --size=XS --policy=sgxbounds --event_limit=2048 --out=tests/golden/kmeans_xs_sgxbounds.sgxtrace
//   trace_tool record --workload=linear_regression --size=XS --policy=sgxbounds --threads=2 --out=tests/golden/linear_regression_xs_t2.sgxtrace
// and say so in the commit message.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/trace/decoded_trace.h"
#include "src/trace/record.h"
#include "src/trace/trace_io.h"

#ifndef SGXB_GOLDEN_TRACE_DIR
#error "build must define SGXB_GOLDEN_TRACE_DIR"
#endif

namespace sgxb {
namespace {

constexpr uint64_t kGoldenEventLimit = 2048;

struct Golden {
  const char* file;
  const char* workload;
  uint32_t threads;
  uint64_t event_limit;  // 0 = the whole run
};

constexpr Golden kGoldens[] = {
    {"kmeans_xs_sgxbounds.sgxtrace", "kmeans", 1, kGoldenEventLimit},
    {"linear_regression_xs_t2.sgxtrace", "linear_regression", 2, 0},
};

std::string GoldenPath(const char* file) {
  return std::string(SGXB_GOLDEN_TRACE_DIR) + "/" + file;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Records `g` the way its trace_tool command line above does.
Trace RecordGolden(const Golden& g) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find(g.workload);
  EXPECT_NE(info, nullptr) << g.workload;
  TraceRecorder recorder(std::string(g.workload) + "/XS");
  if (g.event_limit != 0) {
    recorder.set_event_limit(g.event_limit);
  }
  MachineSpec spec;  // defaults: enclave on, 94 MiB EPC, seed 42
  spec.trace = &recorder;
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = g.threads;
  info->run(PolicyKind::kSgxBounds, spec, PolicyOptions{}, cfg);
  return recorder.TakeTrace();
}

// Reports the first decoded events on which the two streams diverge.
void ReportEventDiff(const Trace& golden, const Trace& current) {
  const DecodedTrace dg(golden), dc(current);
  int shown = 0;
  for (uint64_t i = 0; shown < 10; ++i) {
    const bool hg = i < dg.event_count();
    const bool hc = i < dc.event_count();
    if (!hg && !hc) {
      break;
    }
    if (!hg || !hc) {
      const DecodedTrace& longer = hg ? dg : dc;
      ADD_FAILURE() << "event #" << i << ": " << (hg ? "current" : "golden")
                    << " stream ends; " << (hg ? "golden" : "current") << " continues with: "
                    << FormatTraceEvent(longer.events()[i], longer.payload());
      break;
    }
    if (!SameTraceEvent(dg.events()[i], dg.payload(), dc.events()[i], dc.payload())) {
      ADD_FAILURE() << "event #" << i << " diverges\n"
                    << "  golden:  " << FormatTraceEvent(dg.events()[i], dg.payload()) << "\n"
                    << "  current: " << FormatTraceEvent(dc.events()[i], dc.payload());
      ++shown;
    }
  }
}

TEST(TraceGolden, RecordingMatchesCheckedInFilesByteForByte) {
  for (const Golden& g : kGoldens) {
    const std::string path = GoldenPath(g.file);
    const std::vector<uint8_t> golden_bytes = ReadBytes(path);
    ASSERT_FALSE(golden_bytes.empty())
        << path << " is missing; regenerate it (see the comment at the top of this test)";

    const Trace current = RecordGolden(g);
    const std::string out = ::testing::TempDir() + "trace_golden_current.sgxtrace";
    std::string error;
    ASSERT_TRUE(SaveTrace(current, out, &error)) << error;
    const std::vector<uint8_t> current_bytes = ReadBytes(out);
    std::remove(out.c_str());
    if (current_bytes == golden_bytes) {
      continue;
    }

    Trace golden;
    ASSERT_TRUE(LoadTrace(path, &golden, &error)) << error;
    // A cost-table change invalidates the goldens by construction; say so
    // rather than print a raw event diff.
    ASSERT_EQ(golden.header.cost_table_id, current.header.cost_table_id)
        << "cost table changed; regenerate tests/golden/" << g.file;
    ReportEventDiff(golden, current);
    ADD_FAILURE() << "a fresh recording differs from tests/golden/" << g.file
                  << " (golden: " << golden_bytes.size() << " bytes, "
                  << golden.summary.event_count << " events, hash " << std::hex
                  << golden.summary.stream_hash << "; current: " << std::dec
                  << current_bytes.size() << " bytes, " << current.summary.event_count
                  << " events, hash " << std::hex << current.summary.stream_hash
                  << ") — if the events above agree, the header or summary moved; an "
                  << "intentional encoding/behaviour change requires regenerating the "
                  << "golden trace (see the comment at the top of this test)";
  }
}

// The complete golden replays, under the machine its header records, to the
// cycle total its live run measured.
TEST(TraceGolden, CompleteGoldenReplaysToItsLiveCycles) {
  Trace trace;
  std::string error;
  ASSERT_TRUE(LoadTrace(GoldenPath("linear_regression_xs_t2.sgxtrace"), &trace, &error))
      << error;
  ASSERT_EQ(trace.summary.truncated, 0u);
  EXPECT_EQ(trace.summary.live_cycles, 129130995u);
  EXPECT_EQ(ReplayTrace(trace).cycles, trace.summary.live_cycles);
}

// The trace encodes cycle-stamped memory events, so it is the sharpest
// engine-equivalence check available: the threaded and jit engines batch pure
// compute charges between observable points, and any slip in that accounting
// shifts a stamp. Record an interpreter-driven workload under all three
// engines and require byte-identical streams.
Trace RecordIrWorkload(IrEngine engine) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("ir_mix");
  EXPECT_NE(info, nullptr);
  TraceRecorder recorder("ir_mix/XS");
  recorder.set_event_limit(kGoldenEventLimit);
  MachineSpec spec;
  spec.trace = &recorder;
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  PolicyOptions options;
  options.ir_engine = engine;
  info->run(PolicyKind::kSgxBounds, spec, options, cfg);
  return recorder.TakeTrace();
}

TEST(TraceGolden, IrWorkloadTraceIsEngineInvariant) {
  const Trace ref = RecordIrWorkload(IrEngine::kReference);
  for (const IrEngine engine : {IrEngine::kThreaded, IrEngine::kJit}) {
    const Trace other = RecordIrWorkload(engine);
    EXPECT_EQ(ref.summary.event_count, other.summary.event_count);
    EXPECT_EQ(ref.summary.stream_hash, other.summary.stream_hash);
    EXPECT_TRUE(ref.events == other.events)
        << IrEngineName(engine)
        << " engine shifted the cycle-stamped event stream";
  }
}

}  // namespace
}  // namespace sgxb
