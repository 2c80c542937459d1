// End-to-end tests of the trace record/replay subsystem: a same-configuration
// replay must reproduce the live run's PerfCounters and cycle totals
// bit-for-bit (every field, every workload shape — single- and multi-threaded,
// completed and crashed), the EPC sweeper must match a full per-point replay
// exactly, and the record-once/replay-many sweep must beat live re-execution
// by the margin the subsystem exists for.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/runtime/syscall_shim.h"
#include "src/trace/decoded_trace.h"
#include "src/trace/record.h"
#include "src/trace/sweep.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_replay.h"

namespace sgxb {
namespace {

// Compares EVERY PerfCounters field; on mismatch names the field.
void ExpectCountersEqual(const PerfCounters& a, const PerfCounters& b,
                         const std::string& what) {
  struct Field {
    const char* name;
    uint64_t PerfCounters::*member;
  };
  static const Field kFields[] = {
      {"cycles", &PerfCounters::cycles},
      {"alu_ops", &PerfCounters::alu_ops},
      {"branches", &PerfCounters::branches},
      {"fp_ops", &PerfCounters::fp_ops},
      {"calls", &PerfCounters::calls},
      {"syscalls", &PerfCounters::syscalls},
      {"loads", &PerfCounters::loads},
      {"stores", &PerfCounters::stores},
      {"metadata_loads", &PerfCounters::metadata_loads},
      {"metadata_stores", &PerfCounters::metadata_stores},
      {"l1_accesses", &PerfCounters::l1_accesses},
      {"l1_misses", &PerfCounters::l1_misses},
      {"l2_misses", &PerfCounters::l2_misses},
      {"llc_accesses", &PerfCounters::llc_accesses},
      {"llc_misses", &PerfCounters::llc_misses},
      {"epc_faults", &PerfCounters::epc_faults},
      {"minor_faults", &PerfCounters::minor_faults},
      {"bounds_checks", &PerfCounters::bounds_checks},
      {"bounds_violations", &PerfCounters::bounds_violations},
      {"ecalls", &PerfCounters::ecalls},
      {"ocalls", &PerfCounters::ocalls},
      {"transition_cycles", &PerfCounters::transition_cycles},
  };
  for (const Field& f : kFields) {
    EXPECT_EQ(a.*f.member, b.*f.member) << what << ": field " << f.name;
  }
}

RecordedRun Record(const char* workload, PolicyKind kind, SizeClass size,
                   uint32_t threads = 1) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find(workload);
  EXPECT_NE(info, nullptr) << workload;
  MachineSpec spec;
  WorkloadConfig cfg;
  cfg.size = size;
  cfg.threads = threads;
  return RecordWorkloadRun(*info, kind, spec, PolicyOptions{}, cfg);
}

// Acceptance core: replaying under the recording configuration reproduces the
// live run exactly — three workloads, two policies, including a multithreaded
// run (kmeans at 4 simulated threads fans the trace across 5 cpus).
TEST(TraceReplay, BitIdenticalAcrossWorkloadsAndPolicies) {
  struct Case {
    const char* workload;
    uint32_t threads;
  };
  const Case cases[] = {{"kmeans", 4}, {"matrixmul", 1}, {"wordcount", 1}};
  const PolicyKind policies[] = {PolicyKind::kSgxBounds, PolicyKind::kAsan};
  for (const Case& c : cases) {
    for (PolicyKind kind : policies) {
      const std::string what =
          std::string(c.workload) + "/" + PolicyName(kind);
      const RecordedRun rec = Record(c.workload, kind, SizeClass::kXS, c.threads);
      ASSERT_FALSE(rec.live.crashed) << what;
      const ReplayResult replay = ReplayTrace(rec.trace);
      EXPECT_EQ(replay.cycles, rec.live.cycles) << what;
      ExpectCountersEqual(replay.counters, rec.live.counters, what);
      if (c.threads > 1) {
        EXPECT_GT(replay.cpu_count, 1u) << what << ": expected a multi-cpu trace";
      }
    }
  }
}

// A run that dies mid-flight (MPX exhausts the address space reserving bounds
// tables on astar) records up to the trap; the replay of that prefix must
// reproduce the crashed run's counters bit-for-bit too.
TEST(TraceReplay, CrashedRunReplaysBitIdentical) {
  const RecordedRun rec = Record("astar", PolicyKind::kMpx, SizeClass::kM);
  ASSERT_TRUE(rec.live.crashed) << "expected astar/MPX/M to OOM";
  EXPECT_EQ(rec.trace.summary.crashed, 1u);
  const ReplayResult replay = ReplayTrace(rec.trace);
  EXPECT_TRUE(replay.crashed);
  EXPECT_EQ(replay.trap_kind, rec.trace.summary.trap_kind);
  EXPECT_EQ(replay.cycles, rec.live.cycles);
  ExpectCountersEqual(replay.counters, rec.live.counters, "astar/MPX crash");
}

TEST(TraceReplay, SaveLoadRoundTripPreservesReplay) {
  const RecordedRun rec = Record("matrixmul", PolicyKind::kSgxBounds, SizeClass::kXS);
  const std::string path = ::testing::TempDir() + "trace_roundtrip.sgxtrace";
  std::string error;
  ASSERT_TRUE(SaveTrace(rec.trace, path, &error)) << error;
  Trace loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded, &error)) << error;
  std::remove(path.c_str());

  EXPECT_EQ(loaded.header.workload, rec.trace.header.workload);
  EXPECT_EQ(loaded.header.cost_table_id, rec.trace.header.cost_table_id);
  EXPECT_EQ(loaded.summary.event_count, rec.trace.summary.event_count);
  EXPECT_EQ(loaded.summary.stream_hash, rec.trace.summary.stream_hash);
  EXPECT_EQ(loaded.events, rec.trace.events);

  const ReplayResult replay = ReplayTrace(loaded);
  EXPECT_EQ(replay.cycles, rec.live.cycles);
  ExpectCountersEqual(replay.counters, rec.live.counters, "round-trip");
}

// Builds a complete trace around a hand-written event stream, with the
// stream hash re-stamped so LoadTrace's integrity check accepts it.
Trace CraftedTrace(const TraceHeader& header, std::vector<uint8_t> events,
                   uint32_t cpu_count = 1) {
  Trace t;
  t.header = header;
  t.events = std::move(events);
  t.summary.cpu_count = cpu_count;
  t.summary.stream_hash = FnvUpdate(kFnvOffset, t.events.data(), t.events.size());
  return t;
}

uint8_t AccessByte(TraceEventKind kind, uint32_t size) {
  return static_cast<uint8_t>(kind) | static_cast<uint8_t>(SizeTagOf(size) << 5);
}

uint8_t ControlByte(ControlSub sub) {
  return static_cast<uint8_t>(TraceEventKind::kControl) |
         static_cast<uint8_t>(static_cast<uint8_t>(sub) << 3);
}

uint8_t ParallelByte(ParallelSub sub) {
  return static_cast<uint8_t>(TraceEventKind::kParallel) |
         static_cast<uint8_t>(static_cast<uint8_t>(sub) << 3);
}

// A hand-written stream whose event number `good_events` is one the reader
// must refuse: the events before it decode and replay (touching
// `good_accesses` lines), the reader stops there, and the complete trace
// decodes short of its end.
struct CorruptCase {
  const char* name;
  std::vector<uint8_t> events;
  uint32_t cpu_count;
  uint64_t good_events;
  uint64_t good_accesses;
};

void ExpectReaderStops(const TraceHeader& header, const CorruptCase& c) {
  const std::string path = ::testing::TempDir() + "trace_corrupt.sgxtrace";
  std::string error;
  std::vector<uint8_t> events = c.events;
  events.push_back(ControlByte(ControlSub::kEnd));
  ASSERT_TRUE(SaveTrace(CraftedTrace(header, events, c.cpu_count), path, &error)) << error;
  Trace loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded, &error)) << c.name << ": " << error;
  std::remove(path.c_str());

  TraceReader reader(loaded);
  DecodedEvent ev;
  EventPayload payload;
  for (uint64_t i = 0; i < c.good_events; ++i) {
    ASSERT_TRUE(reader.Next(&ev, &payload)) << c.name;
  }
  EXPECT_FALSE(reader.Next(&ev, &payload)) << c.name;
  EXPECT_FALSE(reader.saw_end()) << c.name;
  EXPECT_FALSE(DecodedTrace(loaded).whole()) << c.name;

  const ReplayResult replay = ReplayTrace(loaded);
  EXPECT_EQ(replay.events_replayed, c.good_events) << c.name;
  EXPECT_EQ(replay.counters.l1_accesses, c.good_accesses) << c.name;
}

// An access whose bytes wrap past 4 GiB cannot come from a live run (the top
// guard page traps first) but can come from a file. The reader must stop at
// it rather than hand the replay a span that walks every cache line: a
// single access, an access run's last element, and a loop phase at its first
// or its last iteration.
TEST(TraceReader, RejectsAccessesWrappingTheAddressSpace) {
  const RecordedRun rec = Record("histogram", PolicyKind::kNative, SizeClass::kXS);

  // One good access, then one at 0xFFFFFFE0 spanning 64 bytes.
  std::vector<uint8_t> access;
  access.push_back(AccessByte(TraceEventKind::kAccess, 4));
  PutZigZag(access, 0x1000);
  access.push_back(AccessByte(TraceEventKind::kAccess, 64));
  PutZigZag(access, int64_t{0xFFFFFFE0} - 0x1000);

  // A run that starts at 0x1000 and strides past 4 GiB by its 17th element.
  std::vector<uint8_t> run;
  run.push_back(AccessByte(TraceEventKind::kAccessRun, 4));
  PutZigZag(run, 0x1000);
  PutZigZag(run, 0x10000000);  // stride
  PutVarint(run, 32);          // count

  // A one-phase loop of `iters` iterations: phase at `addr`, stepping `step`.
  const auto loop = [](int64_t addr, int64_t step, uint64_t iters) {
    std::vector<uint8_t> out;
    out.push_back(ControlByte(ControlSub::kLoopRun));
    PutVarint(out, 1);                                      // period
    PutVarint(out, iters);                                  // iterations
    out.push_back(static_cast<uint8_t>(SizeTagOf(64) << 2));  // app load, no run
    PutZigZag(out, addr);
    PutZigZag(out, step);
    return out;
  };

  // A loop whose one phase, at 0xFFFFFFE0, is flagged as a run of 0
  // accesses: replay still makes the phase's one access there.
  std::vector<uint8_t> empty_run;
  empty_run.push_back(ControlByte(ControlSub::kLoopRun));
  PutVarint(empty_run, 1);  // period
  PutVarint(empty_run, 1);  // iterations
  empty_run.push_back(static_cast<uint8_t>(SizeTagOf(64) << 2 | 1u << 5));  // app load, run
  PutZigZag(empty_run, 0xFFFFFFE0);
  PutZigZag(empty_run, 0);   // step
  PutZigZag(empty_run, 64);  // stride
  PutVarint(empty_run, 0);   // count

  for (const CorruptCase& c :
       {CorruptCase{"access", access, 1, 1, 1},
        CorruptCase{"access run, last element", run, 1, 0, 0},
        CorruptCase{"loop phase, first iteration", loop(0xFFFFFFE0, 64, 2), 1, 0, 0},
        CorruptCase{"loop phase, last iteration", loop(0x1000, 0x1000, 0x100000), 1, 0, 0},
        CorruptCase{"loop phase, zero-count run", empty_run, 1, 0, 0}}) {
    ExpectReaderStops(rec.trace.header, c);
  }
}

// Replay builds a Cpu for every cpu id up to the one an event names, and
// EpcSim aborts on a page past 4 GiB. A live run's cpu ids are dense (each
// worker registers just before it begins) and below the summary's cpu
// count, and its pages lie inside the 2^20-page space; the reader must stop
// at an event that breaks either.
TEST(TraceReader, RejectsCpuIdsAndPageRangesReplayCannotBuild) {
  const RecordedRun rec = Record("histogram", PolicyKind::kNative, SizeClass::kXS);

  std::vector<uint8_t> skip;  // cpu 2 before any cpu 1
  skip.push_back(ControlByte(ControlSub::kSwitchCpu));
  PutVarint(skip, 2);

  std::vector<uint8_t> past_count;  // workers 1 and 2 of a two-cpu trace
  past_count.push_back(ParallelByte(ParallelSub::kBegin));
  PutVarint(past_count, 2);
  past_count.push_back(ParallelByte(ParallelSub::kWorkerBegin));
  PutVarint(past_count, 1);
  past_count.push_back(ParallelByte(ParallelSub::kWorkerEnd));
  past_count.push_back(ParallelByte(ParallelSub::kWorkerBegin));
  PutVarint(past_count, 2);

  // A commit of the last two pages (the range ends at 4 GiB), then a
  // decommit one page further up.
  std::vector<uint8_t> pages;
  pages.push_back(static_cast<uint8_t>(TraceEventKind::kCommit));
  PutZigZag(pages, (1 << 20) - 2);
  PutVarint(pages, 2);
  pages.push_back(static_cast<uint8_t>(TraceEventKind::kDecommit));
  PutZigZag(pages, 0);  // first page (1 << 20) - 1, after the commit's last
  PutVarint(pages, 2);

  std::vector<uint8_t> count;  // a decommit count past the whole page space
  count.push_back(static_cast<uint8_t>(TraceEventKind::kDecommit));
  PutZigZag(count, 0);
  PutVarint(count, (uint64_t{1} << 32) + 1);

  for (const CorruptCase& c : {CorruptCase{"cpu id skips ahead", skip, 3, 0, 0},
                               CorruptCase{"cpu id past cpu_count", past_count, 2, 3, 0},
                               CorruptCase{"page range past 4 GiB", pages, 1, 1, 0},
                               CorruptCase{"page count past 4 GiB", count, 1, 0, 0}}) {
    ExpectReaderStops(rec.trace.header, c);
  }
}

// A trace header's machine config is rebuilt into Cache and EpcSim objects on
// replay. Loading must reject a config those constructors would abort on (or
// a cache too big to allocate), and a cpu count whose Cpus would not fit,
// with a message, before any replay starts.
TEST(TraceIo, RejectsHeaderMachineConfigsTheModelsCannotBuild) {
  const RecordedRun rec = Record("histogram", PolicyKind::kNative, SizeClass::kXS);
  struct Case {
    const char* name;
    void (*craft)(TraceHeader*);
    const char* field;
  };
  const Case cases[] = {
      {"l1_ways=0", [](TraceHeader* h) { h->sim.l1_ways = 0; }, "l1_ways"},
      {"l1_ways=3", [](TraceHeader* h) { h->sim.l1_ways = 3; }, "l1_bytes"},
      {"epc_bytes=0", [](TraceHeader* h) { h->sim.epc_bytes = 0; }, "epc_bytes"},
      {"l1_bytes=2^36", [](TraceHeader* h) { h->sim.l1_bytes = uint64_t{1} << 36; }, "4 GiB"},
      // One set of 2^26 ways: a whole-row memmove on every miss.
      {"l1_ways=2^26",
       [](TraceHeader* h) {
         h->sim.l1_bytes = 4 * kGiB;
         h->sim.l1_ways = 1u << 26;
       },
       "l1_ways"},
  };
  const std::string path = ::testing::TempDir() + "trace_bad_header.sgxtrace";
  for (const Case& c : cases) {
    Trace crafted = rec.trace;
    c.craft(&crafted.header);
    std::string error;
    ASSERT_TRUE(SaveTrace(crafted, path, &error)) << error;

    Trace loaded;
    error.clear();
    EXPECT_FALSE(LoadTrace(path, &loaded, &error)) << c.name;
    EXPECT_NE(error.find(c.field), std::string::npos) << c.name << ": " << error;

    MappedTrace mapped;
    error.clear();
    EXPECT_FALSE(mapped.Load(path, &error)) << c.name;
    EXPECT_FALSE(mapped.loaded()) << c.name;
    EXPECT_NE(error.find("trace header"), std::string::npos) << c.name << ": " << error;
  }
  std::remove(path.c_str());

  // The summary's cpu count is not hashed; replay builds a Cpu, with its
  // private L1 and L2, for every id below it. A count whose Cpus would not
  // fit kMaxReplayCpuBytes is refused at load.
  for (const uint32_t cpu_count : {uint32_t{0xFFFFFFFF}, uint32_t{1} << 16}) {
    Trace crafted = rec.trace;
    crafted.summary.cpu_count = cpu_count;
    std::string error;
    ASSERT_TRUE(SaveTrace(crafted, path, &error)) << error;
    Trace loaded;
    EXPECT_FALSE(LoadTrace(path, &loaded, &error)) << cpu_count;
    EXPECT_NE(error.find("cpu_count"), std::string::npos) << error;
    MappedTrace mapped;
    error.clear();
    EXPECT_FALSE(mapped.Load(path, &error)) << cpu_count;
    EXPECT_NE(error.find("cpu_count"), std::string::npos) << error;
  }
  std::remove(path.c_str());

  // The untouched recording still loads.
  std::string error;
  ASSERT_TRUE(SaveTrace(rec.trace, path, &error)) << error;
  Trace loaded;
  EXPECT_TRUE(LoadTrace(path, &loaded, &error)) << error;
  std::remove(path.c_str());
}

// The ECALL/OCALL transition axis: a live run with transitions enabled
// writes a v2 trace whose replay reproduces the new counters bit-for-bit,
// and the extra cost-table fields survive a save/load round trip.
TEST(TraceReplay, TransitionCostsReplayBitIdentical) {
  TraceRecorder recorder("transitions/manual", "");
  MachineSpec spec;
  spec.costs.EnableTransitions();
  spec.trace = &recorder;
  constexpr uint32_t kRequests = 50;
  const RunResult live =
      RunPolicyKind(PolicyKind::kSgxBounds, spec, PolicyOptions{}, [&](auto& env) {
        SyscallShim shim(&env.enclave);
        auto buf = env.policy.Malloc(env.cpu, 4096);
        const std::vector<uint8_t> payload(64, 0x5a);
        for (uint32_t i = 0; i < kRequests; ++i) {
          env.cpu.Ecall();
          const uint32_t addr = env.policy.AddrOf(buf);
          shim.Recv(env.cpu, addr, payload, 0, 4096);
          env.cpu.MemAccess(addr, 64, AccessClass::kAppLoad);
          shim.Send(env.cpu, addr, 64);
        }
      });
  ASSERT_FALSE(live.crashed);
  EXPECT_EQ(live.counters.ecalls, kRequests);
  EXPECT_EQ(live.counters.ocalls, 2 * kRequests);  // recv + send per request
  EXPECT_EQ(live.counters.transition_cycles,
            live.counters.ecalls * spec.costs.ecall +
                live.counters.ocalls * spec.costs.OcallCost());

  const Trace trace = recorder.TakeTrace();
  EXPECT_EQ(trace.header.version, kTraceVersionTransitions);

  const ReplayResult replay = ReplayTrace(trace);
  EXPECT_EQ(replay.cycles, live.cycles);
  ExpectCountersEqual(replay.counters, live.counters, "transitions");

  const std::string path = ::testing::TempDir() + "trace_transitions.sgxtrace";
  std::string error;
  ASSERT_TRUE(SaveTrace(trace, path, &error)) << error;
  Trace loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded, &error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(loaded.header.version, kTraceVersionTransitions);
  EXPECT_TRUE(loaded.header.sim.costs == trace.header.sim.costs);
  const ReplayResult roundtrip = ReplayTrace(loaded);
  ExpectCountersEqual(roundtrip.counters, live.counters, "transitions round-trip");
}

// With transitions DISABLED (every pre-existing configuration), the new
// counters stay zero live and replayed, and the trace stays version 1 —
// the gate that keeps all older results and golden traces bit-stable.
TEST(TraceReplay, TransitionsOffLeavesTracesAtV1) {
  const RecordedRun rec = Record("matrixmul", PolicyKind::kSgxBounds, SizeClass::kXS);
  EXPECT_EQ(rec.trace.header.version, kTraceVersion);
  EXPECT_EQ(rec.live.counters.ecalls, 0u);
  EXPECT_EQ(rec.live.counters.ocalls, 0u);
  EXPECT_EQ(rec.live.counters.transition_cycles, 0u);
  const ReplayResult replay = ReplayTrace(rec.trace);
  EXPECT_EQ(replay.counters.ecalls, 0u);
  EXPECT_EQ(replay.counters.ocalls, 0u);
  EXPECT_EQ(replay.counters.transition_cycles, 0u);
}

// The sweeper's shortcut (EPC faults never change cache behaviour) must be
// invisible: at every EPC size its result equals a full replay at that size.
TEST(ConfigSweeper, MatchesFullReplayAtEverySize) {
  const RecordedRun rec = Record("kmeans", PolicyKind::kSgxBounds, SizeClass::kXS);
  const SimConfig base = SimConfigFromHeader(rec.trace.header);
  const ConfigSweeper sweeper(DecodedTrace(rec.trace), base);

  EXPECT_EQ(sweeper.base_result().cycles, rec.live.cycles);

  const uint64_t mibs[] = {8, 16, 32, 64, 94, 128};
  for (uint64_t mib : mibs) {
    SimConfig cfg = base;
    cfg.epc_bytes = mib * kMiB;
    const ReplayResult full = ReplayTrace(rec.trace, cfg);
    const ReplayResult swept = sweeper.ReplayAt(mib * kMiB);
    EXPECT_EQ(swept.cycles, full.cycles) << mib << " MiB";
    EXPECT_EQ(swept.counters.cycles, full.counters.cycles) << mib << " MiB";
    EXPECT_EQ(swept.counters.epc_faults, full.counters.epc_faults) << mib << " MiB";
    // Cache behaviour is EPC-independent by construction; assert it held.
    EXPECT_EQ(full.counters.llc_misses, sweeper.base_result().counters.llc_misses)
        << mib << " MiB";
  }
}

// The point of the subsystem: a record-once/replay-many EPC sweep beats
// re-executing the workload per point by >=3x wall-clock, while producing an
// identical cycle series. 12 points, generous margin (typically 5-8x here).
TEST(ConfigSweeper, SweepBeatsLiveReexecutionThreefold) {
  using Clock = std::chrono::steady_clock;
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("kmeans");
  ASSERT_NE(info, nullptr);
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  const uint64_t mibs[] = {4, 8, 12, 16, 24, 32, 48, 64, 80, 94, 112, 128};

  const auto live_start = Clock::now();
  std::vector<uint64_t> live_cycles;
  for (uint64_t mib : mibs) {
    MachineSpec spec;
    spec.epc_bytes = mib * kMiB;
    live_cycles.push_back(
        info->run(PolicyKind::kSgxBounds, spec, PolicyOptions{}, cfg).cycles);
  }
  const double live_s =
      std::chrono::duration<double>(Clock::now() - live_start).count();

  const auto replay_start = Clock::now();
  const RecordedRun rec =
      RecordWorkloadRun(*info, PolicyKind::kSgxBounds, MachineSpec{}, PolicyOptions{}, cfg);
  const ConfigSweeper sweeper(DecodedTrace(rec.trace),
                              SimConfigFromHeader(rec.trace.header));
  std::vector<uint64_t> swept_cycles;
  for (uint64_t mib : mibs) {
    swept_cycles.push_back(sweeper.ReplayAt(mib * kMiB).cycles);
  }
  const double replay_s =
      std::chrono::duration<double>(Clock::now() - replay_start).count();

  ASSERT_EQ(swept_cycles, live_cycles) << "sweep series diverged from live";
  EXPECT_GE(live_s, 3.0 * replay_s)
      << "record-once/replay-many not >=3x faster: live " << live_s << "s vs replay "
      << replay_s << "s over " << (sizeof(mibs) / sizeof(mibs[0])) << " points";
}

// Replaying with enclave mode off reprices the same access stream as a
// non-SGX machine: it must equal actually running outside the enclave.
TEST(TraceReplay, EnclaveOffReplayMatchesLiveNativeRun) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("matrixmul");
  ASSERT_NE(info, nullptr);
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;

  const RecordedRun rec =
      RecordWorkloadRun(*info, PolicyKind::kSgxBounds, MachineSpec{}, PolicyOptions{}, cfg);
  SimConfig native_cfg = SimConfigFromHeader(rec.trace.header);
  native_cfg.enclave_mode = false;
  const ReplayResult replay = ReplayTrace(rec.trace, native_cfg);

  MachineSpec native_spec;
  native_spec.enclave_mode = false;
  const RunResult live =
      info->run(PolicyKind::kSgxBounds, native_spec, PolicyOptions{}, cfg);

  EXPECT_EQ(replay.cycles, live.cycles);
  ExpectCountersEqual(replay.counters, live.counters, "enclave-off replay");
}

// Deterministic re-recording: the same workload/config/seed produces the
// exact same event stream (prerequisite for the golden-trace regression).
TEST(TraceRecorder, RerecordingIsDeterministic) {
  const RecordedRun a = Record("wordcount", PolicyKind::kSgxBounds, SizeClass::kXS);
  const RecordedRun b = Record("wordcount", PolicyKind::kSgxBounds, SizeClass::kXS);
  EXPECT_EQ(a.trace.summary.stream_hash, b.trace.summary.stream_hash);
  EXPECT_EQ(a.trace.summary.event_count, b.trace.summary.event_count);
  EXPECT_EQ(a.trace.events, b.trace.events);
}

// Truncated prefix traces (event_limit) keep the full-stream hash and count
// in the summary but retain only the prefix bytes, and still decode cleanly.
TEST(TraceRecorder, EventLimitRetainsDecodablePrefix) {
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find("kmeans");
  ASSERT_NE(info, nullptr);
  WorkloadConfig cfg;
  cfg.size = SizeClass::kXS;
  cfg.threads = 1;
  TraceRecorder recorder("kmeans/XS");
  recorder.set_event_limit(512);
  MachineSpec spec;
  spec.trace = &recorder;
  info->run(PolicyKind::kSgxBounds, spec, PolicyOptions{}, cfg);
  const Trace trace = recorder.TakeTrace();

  EXPECT_EQ(trace.summary.truncated, 1u);
  EXPECT_GT(trace.summary.event_count, 512u);

  const DecodedTrace decoded(trace);
  EXPECT_EQ(decoded.event_count(), 512u);
  EXPECT_TRUE(decoded.whole());
}

// The decode-once substrate: replaying a DecodedTrace equals streaming
// replay, and the mmap-backed zero-copy load path produces the exact same
// decode as the heap loader.
TEST(DecodedTrace, MatchesStreamingReplayAndMappedLoad) {
  const RecordedRun rec = Record("matrixmul", PolicyKind::kSgxBounds, SizeClass::kXS);
  const DecodedTrace decoded(rec.trace);
  EXPECT_EQ(decoded.event_count(), rec.trace.summary.event_count);
  EXPECT_EQ(decoded.stream_hash(), rec.trace.summary.stream_hash);

  SimConfig cfg = SimConfigFromHeader(rec.trace.header);
  cfg.epc_bytes = 16 * kMiB;
  const ReplayResult streamed = ReplayTrace(rec.trace, cfg);
  const ReplayResult from_decode = ReplayDecoded(decoded, cfg);
  EXPECT_EQ(from_decode.cycles, streamed.cycles);
  ExpectCountersEqual(from_decode.counters, streamed.counters, "decoded replay");

  const std::string path = ::testing::TempDir() + "trace_mapped.sgxtrace";
  std::string error;
  ASSERT_TRUE(SaveTrace(rec.trace, path, &error)) << error;
  MappedTrace mapped;
  ASSERT_TRUE(mapped.Load(path, &error)) << error;
  const DecodedTrace from_map(mapped.header(), mapped.summary(), mapped.events_begin(),
                              mapped.events_end());
  std::remove(path.c_str());
  EXPECT_EQ(from_map.stream_hash(), decoded.stream_hash());
  EXPECT_EQ(from_map.event_count(), decoded.event_count());
  const ReplayResult from_map_replay = ReplayDecoded(from_map, cfg);
  EXPECT_EQ(from_map_replay.cycles, streamed.cycles);
  ExpectCountersEqual(from_map_replay.counters, streamed.counters, "mmap replay");
}

// The generalized capture axes: one enclave-ON capture must re-price cost
// tables and enclave mode (not just EPC size) bit-identically to a full
// replay, and must refuse configs with a different cache geometry.
TEST(ConfigSweeper, RepricesCostTableAndEnclaveAxes) {
  const RecordedRun rec = Record("kmeans", PolicyKind::kSgxBounds, SizeClass::kXS);
  const DecodedTrace decoded(rec.trace);
  const SimConfig base = SimConfigFromHeader(rec.trace.header);
  const ConfigSweeper sweeper(decoded, base);

  std::vector<SimConfig> cases;
  {
    SimConfig pricier = base;  // scale the SGX-pressure prices
    pricier.costs.dram = 300;
    pricier.costs.mee_line = 540;
    pricier.costs.epc_fault = 90000;
    cases.push_back(pricier);
  }
  {
    SimConfig native = base;  // enclave off from an enclave-ON capture
    native.enclave_mode = false;
    cases.push_back(native);
  }
  {
    SimConfig both = base;  // cross-axis: native pricing + cheaper compute
    both.enclave_mode = false;
    both.costs.alu = 2;
    both.costs.syscall_native = 1600;
    both.epc_bytes = 8 * kMiB;  // irrelevant outside the enclave; must not leak
    cases.push_back(both);
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(sweeper.Covers(cases[i])) << "case " << i;
    const ReplayResult full = ReplayDecoded(decoded, cases[i]);
    const ReplayResult swept = sweeper.Replay(cases[i]);
    EXPECT_EQ(swept.cycles, full.cycles) << "case " << i;
    ExpectCountersEqual(swept.counters, full.counters,
                        "capture axis case " + std::to_string(i));
  }

  SimConfig other_geometry = base;
  other_geometry.l3_bytes = base.l3_bytes / 2;
  EXPECT_FALSE(sweeper.Covers(other_geometry))
      << "cache geometry changes hit/miss outcomes; capture must not claim it";
}

// The parallel sweep engine over a sampled 4-axis grid (EPC size, cost
// table, enclave mode, L3 geometry) must be bit-identical to a sequential
// full replay of every config — including the geometry points, which cannot
// use the capture shortcut.
TEST(SweepEngine, MatchesSequentialReplayOnSampledGrid) {
  const RecordedRun rec = Record("kmeans", PolicyKind::kSgxBounds, SizeClass::kXS);
  const DecodedTrace decoded(rec.trace);
  const SimConfig base = SimConfigFromHeader(rec.trace.header);

  std::vector<SweepRequest> grid;
  for (uint64_t epc_mib : {8, 32, 94}) {
    for (uint32_t dram : {150, 300}) {
      for (bool enclave : {true, false}) {
        for (uint64_t l3_div : {1, 2}) {
          SweepRequest req;
          req.trace = &decoded;
          req.config = base;
          req.config.epc_bytes = epc_mib * kMiB;
          req.config.costs.dram = dram;
          req.config.enclave_mode = enclave;
          req.config.l3_bytes = base.l3_bytes / l3_div;
          grid.push_back(req);
        }
      }
    }
  }

  SweepOptions opt;
  opt.threads = 4;
  SweepEngine engine(opt);
  const std::vector<ReplayResult> swept = engine.Run(grid);
  ASSERT_EQ(swept.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    const ReplayResult full = ReplayDecoded(decoded, grid[i].config);
    EXPECT_EQ(swept[i].cycles, full.cycles) << "request " << i;
    ExpectCountersEqual(swept[i].counters, full.counters,
                        "sweep request " + std::to_string(i));
  }
  EXPECT_EQ(engine.stats().requests, grid.size());
  EXPECT_EQ(engine.stats().memo_hits + engine.stats().capture_replays +
                engine.stats().full_replays,
            grid.size());
}

// --bench_threads must never change results: the same grid swept on 1, 4 and
// 16 threads produces identical ReplayResults AND identical stats (the
// duplicate fold is resolved before dispatch, not by racing workers).
TEST(SweepEngine, ThreadCountInvariance) {
  const RecordedRun rec = Record("wordcount", PolicyKind::kSgxBounds, SizeClass::kXS);
  const DecodedTrace decoded(rec.trace);
  const SimConfig base = SimConfigFromHeader(rec.trace.header);

  std::vector<SweepRequest> grid;
  for (uint64_t epc_mib : {8, 16, 24, 32, 48, 64, 94, 128}) {
    for (bool enclave : {true, false}) {
      SweepRequest req;
      req.trace = &decoded;
      req.config = base;
      req.config.epc_bytes = epc_mib * kMiB;
      req.config.enclave_mode = enclave;
      grid.push_back(req);
    }
  }
  grid.push_back(grid.front());  // a duplicate, folded onto the first request

  std::vector<std::vector<ReplayResult>> per_threads;
  std::vector<SweepStats> per_stats;
  for (uint32_t threads : {1u, 4u, 16u}) {
    SweepOptions opt;
    opt.threads = threads;
    SweepEngine engine(opt);
    per_threads.push_back(engine.Run(grid));
    per_stats.push_back(engine.stats());
  }
  EXPECT_EQ(per_stats[0].memo_hits, 1u) << "the grid holds one duplicate";
  for (size_t t = 1; t < per_threads.size(); ++t) {
    ASSERT_EQ(per_threads[t].size(), per_threads[0].size());
    for (size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(per_threads[t][i].cycles, per_threads[0][i].cycles)
          << "threads variant " << t << ", request " << i;
      ExpectCountersEqual(per_threads[t][i].counters, per_threads[0][i].counters,
                          "threads variant " + std::to_string(t) + " request " +
                              std::to_string(i));
    }
    EXPECT_EQ(per_stats[t].memo_hits, per_stats[0].memo_hits);
    EXPECT_EQ(per_stats[t].captures_built, per_stats[0].captures_built);
    EXPECT_EQ(per_stats[t].capture_replays, per_stats[0].capture_replays);
    EXPECT_EQ(per_stats[t].full_replays, per_stats[0].full_replays);
  }
}

}  // namespace
}  // namespace sgxb
