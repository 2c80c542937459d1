// hostbench: host-speed benchmark of the simulator, end to end and layer by
// layer.
//
//   hostbench --workload paper_live --seed 7 --seconds 10 --trace 0
//
// One process runs one workload, so peak RSS and set-up time never include
// another workload's. A workload is a fixed batch of jobs - one simulation,
// one sweep batch or one farm run each - pulled in a closed loop by one host
// worker: it takes its next job only when its previous one has finished. One
// worker leaves the other cores to the rest of a shared host, so co-tenants
// disturb the timings less. A round of the batch takes a few seconds; rounds
// repeat until --seconds have passed and at least 100 jobs were timed, and
// per-round figures are medians over the rounds. The seed is the only input:
// it feeds WorkloadConfig.seed, the farm's load seed and its fault seed.
//
// Host times are reported scaled to a reference speed: before each job the
// worker times a fixed simulator-like loop of the benchmark's own
// (reference.h), and each round's times are multiplied by the loop's nominal
// time over its mean time in that round. This cancels most of a shared
// host's drift, which moves one job's CPU time by tens of percent over tens
// of seconds. The report keeps the raw times and the loop's times.
//
// Every job is timed from outside, around one public entry point
// (WorkloadInfo::run, SweepEngine::Run, RunFarm). Simulated outputs are
// checked after the timed rounds: against pinned digests at the pinned
// seed, and at any seed against identities that need no pin (rounds agree,
// live == replay, SweepEngine == sequential replay, jit == threaded, farm
// digests independent of the host thread count). A failed check prints
// the result with "correct": false and exits 1.
//
// --trace 1 alternates untraced and traced rounds. Traced rounds record
// spans (hostbench/spans.h) around each call; together with a few direct
// layer probes (among them one round at min(4, nproc) workers, for the
// parallel idle share) they give the per-layer metrics, and the two kinds of
// round give the tracing overhead. End-to-end metrics come from --trace 0
// only.
//
// The last stdout line is the result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hostbench/reference.h"
#include "hostbench/spans.h"
#include "src/common/host_parallel.h"
#include "src/common/ir_engine.h"
#include "src/common/rng.h"
#include "src/farm/farm.h"
#include "src/farm/ring.h"
#include "src/ir/exec/jit/code_buffer.h"
#include "src/policy/registry.h"
#include "src/runtime/heap.h"
#include "src/trace/record.h"
#include "src/trace/sweep.h"
#include "src/workloads/workload.h"

namespace hostbench {
namespace {

using sgxb::PerfCounters;
using sgxb::PolicyKind;
using sgxb::RunResult;

// Digests at this seed are pinned in hostbench/pinned/<workload>.txt.
constexpr uint64_t kPinnedSeed = 42;
constexpr size_t kSetupReps = 9;
constexpr size_t kMinTimedJobs = 100;
// Host workers of the timed rounds.
constexpr uint32_t kTimedWorkers = 1;

// ---------------------------------------------------------------------------
// Digests of simulated outputs.

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

uint64_t Fold(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FoldCounters(uint64_t h, const PerfCounters& c) {
  for (uint64_t w : {c.cycles, c.alu_ops, c.branches, c.fp_ops, c.calls, c.syscalls, c.loads,
                     c.stores, c.metadata_loads, c.metadata_stores, c.l1_accesses, c.l1_misses,
                     c.l2_misses, c.llc_accesses, c.llc_misses, c.epc_faults, c.minor_faults,
                     c.bounds_checks, c.bounds_violations, c.ecalls, c.ocalls,
                     c.transition_cycles}) {
    h = Fold(h, w);
  }
  return h;
}

// Counters, cycles, peak VM and trap: everything a figure prints from a run.
uint64_t DigestRun(const RunResult& r) {
  uint64_t h = kFnvBasis;
  for (uint64_t w : {r.cycles, r.peak_vm_bytes, static_cast<uint64_t>(r.crashed),
                     static_cast<uint64_t>(r.trap), static_cast<uint64_t>(r.mpx_bt_count)}) {
    h = Fold(h, w);
  }
  return FoldCounters(h, r.counters);
}

uint64_t FoldReplay(uint64_t h, const sgxb::ReplayResult& r) {
  for (uint64_t w : {r.cycles, static_cast<uint64_t>(r.cpu_count), r.events_replayed,
                     r.peak_vm_bytes, static_cast<uint64_t>(r.mpx_bt_count),
                     static_cast<uint64_t>(r.crashed), static_cast<uint64_t>(r.trap_kind)}) {
    h = Fold(h, w);
  }
  return FoldCounters(h, r.counters);
}

uint64_t MemAccesses(const PerfCounters& c) {
  return c.loads + c.stores + c.metadata_loads + c.metadata_stores;
}

// ---------------------------------------------------------------------------
// Jobs and rounds.

struct JobOutput {
  uint64_t digest = 0;
  bool ok = true;  // false: the simulated outcome is not an accepted one
  std::string error;
  uint64_t maccess = 0;       // simulated memory accesses produced
  uint64_t instructions = 0;  // simulated PerfCounters::instructions() produced
  uint64_t enclaves = 0;      // simulated enclaves the job constructed
  sgxb::CheckPassStats pass;
  sgxb::SweepStats sweep;
  std::vector<sgxb::ReplayResult> replays;  // SweepEngine jobs: one per request
  uint64_t retries = 0;
  uint64_t hedges = 0;
};

struct Job {
  std::string label;
  std::string scheme;   // registry id of the scheme whose code the job runs; "" if none
  std::string group;    // live programs: suite; IR jobs: kernel; farm runs: app
  std::string variant;  // IR jobs: engine; farm runs: recovery mode
  std::string call;     // the public entry point the job times
  std::function<JobOutput()> run;
};

struct JobSample {
  ReferenceSample ref;  // the reference loop, timed right before the job
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;  // thread CPU of the job
  JobOutput out;
};

struct Round {
  bool traced = false;
  uint32_t workers = 0;
  double wall_s = 0;      // the whole round, reference loops included
  double job_wall_s = 0;  // sums over the jobs
  double job_cpu_s = 0;
  double ref_wall_ms = 0;  // the reference loop, mean per job; 0 if not run
  double ref_cpu_ms = 0;
  std::vector<JobSample> samples;  // indexed like the job batch
  sgxb::IrExecStatsSnapshot ir_delta;

  // Factors that scale this round's host times to the reference speed.
  double wall_scale() const { return ref_wall_ms > 0 ? kReferenceNominalMs / ref_wall_ms : 1; }
  double cpu_scale() const { return ref_cpu_ms > 0 ? kReferenceNominalMs / ref_cpu_ms : 1; }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

sgxb::IrExecStatsSnapshot IrDelta(const sgxb::IrExecStatsSnapshot& a,
                                  const sgxb::IrExecStatsSnapshot& b) {
  sgxb::IrExecStatsSnapshot d;
  d.decode_hits = b.decode_hits - a.decode_hits;
  d.decode_misses = b.decode_misses - a.decode_misses;
  d.jit_hits = b.jit_hits - a.jit_hits;
  d.jit_compiles = b.jit_compiles - a.jit_compiles;
  d.jit_compiled_bytes = b.jit_compiled_bytes - a.jit_compiled_bytes;
  d.jit_compile_ns = b.jit_compile_ns - a.jit_compile_ns;
  d.jit_noexec_fallbacks = b.jit_noexec_fallbacks - a.jit_noexec_fallbacks;
  return d;
}

// Runs the batch once with `workers` closed-loop host workers. Rounds at
// kTimedWorkers run the reference loop before each job.
Round RunRound(const std::vector<Job>& jobs, uint32_t workers, SpanRecorder* spans,
               bool traced) {
  Round round;
  round.traced = traced;
  round.workers = workers;
  round.samples.resize(jobs.size());
  spans->Enable(traced);
  SpanRecorder::Scope round_span;
  spans->Open(&round_span, "round");
  const int64_t round_id = round_span.id();
  const sgxb::IrExecStatsSnapshot ir_before = sgxb::SnapshotIrExecStats();
  const bool reference = workers == kTimedWorkers;
  std::atomic<size_t> next{0};
  const uint64_t wall0 = WallNs();
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) {
        return;
      }
      JobSample& s = round.samples[i];
      if (reference) {
        s.ref = RunReference();
      }
      SpanRecorder::Scope job_span;
      spans->Open(&job_span, "job", static_cast<int64_t>(i), round_id);
      const uint64_t w0 = WallNs();
      const uint64_t c0 = ThreadCpuNs();
      try {
        SpanRecorder::Scope call;
        spans->Open(&call, jobs[i].call, static_cast<int64_t>(i));
        s.out = jobs[i].run();
      } catch (const std::exception& e) {
        s.out.ok = false;
        s.out.error = e.what();
      }
      s.cpu_ns = ThreadCpuNs() - c0;
      s.wall_ns = WallNs() - w0;
    }
  };
  std::vector<std::thread> pool;
  for (uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) {
    t.join();
  }
  round.wall_s = static_cast<double>(WallNs() - wall0) / 1e9;
  for (const JobSample& s : round.samples) {
    round.job_wall_s += static_cast<double>(s.wall_ns) / 1e9;
    round.job_cpu_s += static_cast<double>(s.cpu_ns) / 1e9;
    round.ref_wall_ms += static_cast<double>(s.ref.wall_ns) / 1e6;
    round.ref_cpu_ms += static_cast<double>(s.ref.cpu_ns) / 1e6;
  }
  round.ref_wall_ms /= static_cast<double>(std::max<size_t>(jobs.size(), 1));
  round.ref_cpu_ms /= static_cast<double>(std::max<size_t>(jobs.size(), 1));
  round.ir_delta = IrDelta(ir_before, sgxb::SnapshotIrExecStats());
  round_span.Close();
  spans->Enable(false);
  return round;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class Metrics {
 public:
  // Sets a metric, declaring it on first use. An empty unit only updates a
  // metric declared before.
  void Set(const std::string& name, const std::string& unit, double value) {
    for (Metric& m : list_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    if (unit.empty()) {
      std::fprintf(stderr, "[hostbench] internal: undeclared metric %s\n", name.c_str());
      std::abort();
    }
    list_.push_back({name, unit, value});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Workloads.

struct Params {
  uint64_t seed = kPinnedSeed;
  bool tiny = false;      // smoke-test size
  uint32_t parallel = 1;  // host threads for the untimed checks and probes
};

// An accepted live outcome: the run finished, or MPX ran out of enclave
// memory (the paper's expected MPX crashes).
JobOutput FromRun(const RunResult& r) {
  JobOutput o;
  o.digest = DigestRun(r);
  o.maccess = MemAccesses(r.counters);
  o.instructions = r.counters.instructions();
  o.enclaves = 1;
  o.pass = r.pass_stats;
  if (r.crashed && !(r.kind == PolicyKind::kMpx && r.trap == sgxb::TrapKind::kOutOfMemory)) {
    o.ok = false;
    o.error = "unexpected trap: " + r.trap_message;
  }
  return o;
}

sgxb::WorkloadConfig PaperConfig(const sgxb::WorkloadInfo& w, uint64_t seed) {
  sgxb::WorkloadConfig cfg;
  cfg.size = sgxb::SizeClass::kXS;
  cfg.threads = w.suite == "spec" ? 1 : 8;  // fig11 runs SPEC single-threaded, fig07 at 8
  cfg.seed = seed;
  return cfg;
}

Job LiveJob(const sgxb::WorkloadInfo* w, const sgxb::SchemeDescriptor* d,
            const sgxb::PolicyOptions& options, const sgxb::WorkloadConfig& cfg,
            std::string label, std::string group, std::string variant) {
  Job job;
  job.label = std::move(label);
  job.scheme = d->id;
  job.group = std::move(group);
  job.variant = std::move(variant);
  job.call = "WorkloadInfo::run";
  const PolicyKind kind = d->kind;
  job.run = [w, kind, options, cfg] {
    return FromRun(w->run(kind, sgxb::MachineSpec{}, options, cfg));
  };
  return job;
}

class Workload {
 public:
  explicit Workload(const Params& params) : params_(params) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the inputs and the job batch. Timed as setup_s, so it must be
  // safe to call repeatedly; each call replaces the previous batch.
  virtual void Setup() = 0;
  // Identity checks that hold at any seed, on the first round's outputs
  // (indexed like jobs()); run after the timed rounds.
  virtual void Check(std::span<const JobSample>, std::vector<std::string>*) {}
  // Direct probes, in the traced run, of layers no job exposes.
  virtual void Probe(SpanRecorder*, Metrics*) {}

  const std::vector<Job>& jobs() const { return jobs_; }

 protected:
  Params params_;
  std::vector<Job> jobs_;
};

// fig07 + fig11: three programs per suite, live, under every registry
// scheme. The programs span the suites' per-job cost from ~20 to ~160 ms at
// XS, and keep a round to about four seconds on one host worker.
class PaperLive final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    jobs_.clear();
    const std::vector<std::string> programs =
        params_.tiny ? std::vector<std::string>{"linear_regression", "blackscholes", "libquantum"}
                     : std::vector<std::string>(std::begin(kPrograms), std::end(kPrograms));
    for (const std::string& name : programs) {
      const sgxb::WorkloadInfo* w = sgxb::WorkloadRegistry::Instance().Find(name);
      for (const sgxb::SchemeDescriptor* d : sgxb::AllSchemes()) {
        jobs_.push_back(LiveJob(w, d, d->default_options, PaperConfig(*w, params_.seed),
                                w->name + "/" + d->id, w->suite, ""));
      }
    }
    // Warm-up: the smallest paper program once under every scheme, so
    // allocator arenas and each scheme's code pages are in place before the
    // first timed job.
    const sgxb::WorkloadInfo* vips = sgxb::WorkloadRegistry::Instance().Find("vips");
    for (const sgxb::SchemeDescriptor* d : sgxb::AllSchemes()) {
      vips->run(d->kind, sgxb::MachineSpec{}, d->default_options,
                PaperConfig(*vips, params_.seed));
    }
  }

  static constexpr const char* kPrograms[] = {
      "histogram", "wordcount",    "string_match",  // Phoenix (fig07)
      "streamcluster", "swaptions", "blackscholes",  // PARSEC (fig07)
      "hmmer",     "lbm",          "libquantum",    // SPEC (fig11)
  };
};

// The four IR kernels x every scheme x {threaded, jit} at L.
class IrEngines final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    jobs_.clear();
    const std::vector<const sgxb::WorkloadInfo*> kernels =
        sgxb::WorkloadRegistry::Instance().BySuite("ir");
    sgxb::WorkloadConfig cfg;
    cfg.size = params_.tiny ? sgxb::SizeClass::kXS : sgxb::SizeClass::kL;
    cfg.threads = 1;
    cfg.seed = params_.seed;
    for (const sgxb::WorkloadInfo* w : kernels) {
      for (const sgxb::SchemeDescriptor* d : sgxb::AllSchemes()) {
        // Jobs 2k and 2k+1 are the threaded/jit pair Check compares.
        for (const sgxb::IrEngine engine : kEngines) {
          sgxb::PolicyOptions options = d->default_options;
          options.ir_engine = engine;
          jobs_.push_back(LiveJob(w, d, options, cfg,
                                  w->name + "/" + d->id + "/" + sgxb::IrEngineName(engine),
                                  w->name, sgxb::IrEngineName(engine)));
        }
      }
    }
    // Warm-up: both engines once on the smallest kernel, so the first JIT
    // code buffer is mapped before timing.
    const sgxb::WorkloadInfo* copy = sgxb::WorkloadRegistry::Instance().Find("ir_copy");
    sgxb::WorkloadConfig small = cfg;
    small.size = sgxb::SizeClass::kXS;
    for (const sgxb::IrEngine engine : kEngines) {
      sgxb::PolicyOptions options;
      options.ir_engine = engine;
      copy->run(PolicyKind::kNative, sgxb::MachineSpec{}, options, small);
    }
  }

  void Check(std::span<const JobSample> samples, std::vector<std::string>* failures) override {
    for (size_t i = 0; i + 1 < jobs_.size(); i += 2) {
      if (samples[i].out.digest != samples[i + 1].out.digest) {
        failures->push_back("jit != threaded: " + jobs_[i].label + " vs " + jobs_[i + 1].label);
      }
    }
  }

  static constexpr sgxb::IrEngine kEngines[] = {sgxb::IrEngine::kThreaded,
                                                sgxb::IrEngine::kJit};
};

// Record two of the paper_live programs once under three schemes, decode
// them, then sweep each trace over EPC size x cost table x enclave mode,
// plus one L3 geometry that only one request uses (a full replay) and one
// repeated request (a memo hit).
class TraceSweep final : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    jobs_.clear();
    recs_.clear();
    decoded_.clear();
    grids_.clear();
    const std::vector<std::string> names =
        params_.tiny ? std::vector<std::string>{"linear_regression"}
                     : std::vector<std::string>{"linear_regression", "libquantum"};
    const std::vector<PolicyKind> kinds =
        params_.tiny ? std::vector<PolicyKind>{PolicyKind::kNative, PolicyKind::kSgxBounds}
                     : std::vector<PolicyKind>{PolicyKind::kNative, PolicyKind::kSgxBounds,
                                               PolicyKind::kAsan};
    sources_.clear();
    for (const std::string& name : names) {
      for (PolicyKind kind : kinds) {
        sources_.push_back({sgxb::WorkloadRegistry::Instance().Find(name), &sgxb::SchemeOf(kind)});
      }
    }
    const size_t n = sources_.size();
    recs_.resize(n);
    decoded_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const auto& [w, d] = sources_[i];
      recs_[i] = sgxb::RecordWorkloadRun(*w, d->kind, sgxb::MachineSpec{}, d->default_options,
                                         PaperConfig(*w, params_.seed));
      decoded_[i] = std::make_unique<sgxb::DecodedTrace>(recs_[i].trace);
    }

    const uint64_t epc_points = params_.tiny ? 4 : 16;
    grids_.reserve(n);  // jobs keep pointers to the grids: no reallocation
    for (size_t t = 0; t < n; ++t) {
      const sgxb::SimConfig base = sgxb::SimConfigFromHeader(decoded_[t]->header());
      std::vector<sgxb::SweepRequest> grid;
      auto add = [&](const sgxb::SimConfig& cfg) { grid.push_back({decoded_[t].get(), cfg}); };
      for (const bool enclave : {true, false}) {
        for (const uint32_t pct : {100u, 150u}) {
          for (uint64_t i = 0; i < epc_points; ++i) {
            sgxb::SimConfig cfg = base;
            cfg.enclave_mode = enclave;
            cfg.costs.dram = cfg.costs.dram * pct / 100;
            cfg.costs.mee_line = cfg.costs.mee_line * pct / 100;
            cfg.costs.epc_fault = cfg.costs.epc_fault * pct / 100;
            cfg.epc_bytes = (8 + 120 * i / (epc_points - 1)) * sgxb::kMiB;
            add(cfg);
          }
        }
      }
      add(base);
      add(base);  // asked again: answered from the memo
      sgxb::SimConfig l3 = base;
      l3.l3_bytes = base.l3_bytes / 2;
      add(l3);  // sole request at this geometry: a full replay
      grids_.push_back(std::move(grid));

      Job job;
      job.label = recs_[t].trace.header.workload + "/" + sources_[t].d->id;
      job.call = "SweepEngine::Run";
      const std::vector<sgxb::SweepRequest>* g = &grids_.back();
      job.run = [g] {
        sgxb::SweepOptions options;
        options.threads = 1;  // the host workers are the parallelism
        sgxb::SweepEngine engine(options);
        JobOutput o;
        o.replays = engine.Run(*g);
        o.digest = kFnvBasis;
        for (const sgxb::ReplayResult& r : o.replays) {
          o.digest = FoldReplay(o.digest, r);
          o.maccess += MemAccesses(r.counters);
          o.instructions += r.counters.instructions();
        }
        o.sweep = engine.stats();
        return o;
      };
      jobs_.push_back(std::move(job));
    }
  }

  void Check(std::span<const JobSample> samples, std::vector<std::string>* failures) override {
    // Live == ReplayDecoded at the recording config, for every recorded job.
    std::vector<uint64_t> replayed(recs_.size());
    sgxb::ParallelFor(recs_.size(), params_.parallel, [&](size_t t) {
      const sgxb::ReplayResult r =
          sgxb::ReplayDecoded(*decoded_[t], sgxb::SimConfigFromHeader(decoded_[t]->header()));
      replayed[t] = DigestRun(sgxb::ToRunResult(r, *decoded_[t]));
    });
    for (size_t t = 0; t < recs_.size(); ++t) {
      if (replayed[t] != DigestRun(recs_[t].live)) {
        failures->push_back("live != replay: " + jobs_[t].label);
      }
    }
    // SweepEngine == sequential ReplayDecoded on a seeded sample of requests.
    sgxb::Rng rng(params_.seed ^ 0x5a5a5a5a5a5a5a5aull);
    const size_t picks_n = params_.tiny ? 2 : 6;
    std::vector<std::pair<size_t, size_t>> picks;
    for (size_t k = 0; k < picks_n; ++k) {
      const size_t t = rng.NextBounded(grids_.size());
      picks.emplace_back(t, rng.NextBounded(grids_[t].size()));
    }
    std::vector<uint64_t> sequential(picks.size());
    sgxb::ParallelFor(picks.size(), params_.parallel, [&](size_t k) {
      const sgxb::SweepRequest& req = grids_[picks[k].first][picks[k].second];
      sequential[k] = FoldReplay(kFnvBasis, sgxb::ReplayDecoded(*req.trace, req.config));
    });
    for (size_t k = 0; k < picks.size(); ++k) {
      const auto [t, r] = picks[k];
      if (FoldReplay(kFnvBasis, samples[t].out.replays[r]) != sequential[k]) {
        failures->push_back("SweepEngine != ReplayDecoded: " + jobs_[t].label + " request " +
                            std::to_string(r));
      }
    }
  }

  void Probe(SpanRecorder* spans, Metrics* layers) override {
    struct Timing {
      double live_ms = 0, record_ms = 0, decode_ms = 0, replay_ms = 0, capture_ms = 0,
             paging_us = 0, fit_us = 0, full_ms = 0;
      uint64_t events = 0, encoded = 0;
    };
    std::vector<Timing> tm(sources_.size());
    const int reprice_reps = 50;
    sgxb::ParallelFor(sources_.size(), params_.parallel, [&](size_t i) {
      const auto& [w, d] = sources_[i];
      const sgxb::WorkloadConfig cfg = PaperConfig(*w, params_.seed);
      Timing& t = tm[i];
      auto timed = [&](const char* name, auto&& fn) {
        SpanRecorder::Scope span;
        spans->Open(&span, name);
        const uint64_t t0 = WallNs();
        fn();
        return static_cast<double>(WallNs() - t0) / 1e6;
      };
      t.live_ms = timed("WorkloadInfo::run", [&] {
        w->run(d->kind, sgxb::MachineSpec{}, d->default_options, cfg);
      });
      sgxb::RecordedRun rec;
      t.record_ms = timed("RecordWorkloadRun", [&] {
        rec = sgxb::RecordWorkloadRun(*w, d->kind, sgxb::MachineSpec{}, d->default_options, cfg);
      });
      std::unique_ptr<sgxb::DecodedTrace> dt;
      t.decode_ms = timed("DecodedTrace", [&] {
        dt = std::make_unique<sgxb::DecodedTrace>(rec.trace);
      });
      t.events = dt->event_count();
      t.encoded = dt->encoded_bytes();
      const sgxb::SimConfig base = sgxb::SimConfigFromHeader(dt->header());
      t.replay_ms = timed("ReplayDecoded", [&] { sgxb::ReplayDecoded(*dt, base); });
      std::unique_ptr<sgxb::ConfigSweeper> cap;
      t.capture_ms = timed("ConfigSweeper", [&] {
        cap = std::make_unique<sgxb::ConfigSweeper>(*dt, base);
      });
      t.paging_us = timed("ConfigSweeper::Replay", [&] {
        for (int k = 0; k < reprice_reps; ++k) {
          cap->ReplayAt(8 * sgxb::kMiB);
        }
      }) * 1000.0 / reprice_reps;
      t.fit_us = timed("ConfigSweeper::Replay", [&] {
        for (int k = 0; k < reprice_reps; ++k) {
          cap->ReplayAt(128 * sgxb::kMiB);
        }
      }) * 1000.0 / reprice_reps;
      sgxb::SimConfig l3 = base;
      l3.l3_bytes = base.l3_bytes / 2;
      t.full_ms = timed("ReplayDecoded", [&] { sgxb::ReplayDecoded(*dt, l3); });
    });
    Timing sum;
    for (const Timing& t : tm) {
      sum.live_ms += t.live_ms;
      sum.record_ms += t.record_ms;
      sum.decode_ms += t.decode_ms;
      sum.replay_ms += t.replay_ms;
      sum.capture_ms += t.capture_ms;
      sum.paging_us += t.paging_us / static_cast<double>(tm.size());
      sum.fit_us += t.fit_us / static_cast<double>(tm.size());
      sum.full_ms += t.full_ms;
      sum.events += t.events;
      sum.encoded += t.encoded;
    }
    const double events = static_cast<double>(std::max<uint64_t>(sum.events, 1));
    layers->Set("sim.replay_ns_per_event", "ns", sum.replay_ms * 1e6 / events);
    layers->Set("sim.replay_share_of_live", "ratio", sum.replay_ms / sum.live_ms);
    layers->Set("trace.record_overhead", "ratio", sum.record_ms / sum.live_ms);
    layers->Set("trace.record_ms", "ms", sum.record_ms);
    layers->Set("trace.decode_ms", "ms", sum.decode_ms);
    layers->Set("trace.decode_ns_per_event", "ns", sum.decode_ms * 1e6 / events);
    layers->Set("trace.events", "count", static_cast<double>(sum.events));
    layers->Set("trace.encoded_mb", "MB", static_cast<double>(sum.encoded) / 1e6);
    layers->Set("trace.capture_ms", "ms", sum.capture_ms);
    layers->Set("trace.reprice_us_paging", "us", sum.paging_us);
    layers->Set("trace.reprice_us_fit", "us", sum.fit_us);
    layers->Set("trace.full_replay_ms", "ms", sum.full_ms);
  }

 private:
  struct Source {
    const sgxb::WorkloadInfo* w;
    const sgxb::SchemeDescriptor* d;
  };
  std::vector<Source> sources_;
  std::vector<sgxb::RecordedRun> recs_;
  std::vector<std::unique_ptr<sgxb::DecodedTrace>> decoded_;
  std::vector<std::vector<sgxb::SweepRequest>> grids_;
};

// RunFarm on kvstore and memcached (Zipf 0.99), 8 SGXBounds shards, open
// loop: fault-free with resilience off, and at the mid fault rate under
// failstop and failover+hedge.
class FarmServe final : public Workload {
 public:
  using Workload::Workload;

  static constexpr uint32_t kShards = 8;
  static constexpr uint32_t kFaultEvents = 4;  // fig16's mid fault rate
  static constexpr double kOfferedRps = 1.2e6;
  static constexpr uint64_t kStreams = 2;  // independent load streams per (app, mode)

  void Setup() override {
    jobs_.clear();
    configs_.clear();
    const uint64_t requests = params_.tiny ? 5000 : 25000;
    sgxb::FarmConfig proto;
    proto.shards = kShards;
    proto.policy = PolicyKind::kSgxBounds;
    proto.load.requests = requests;
    proto.load.keyspace = 4096;
    proto.load.key_theta = 0.99;
    proto.open_loop = true;
    proto.offered_rps = kOfferedRps;
    proto.host_threads = 1;  // the host workers are the parallelism
    proto.machine.costs.EnableTransitions(/*use_switchless=*/false);
    proto.machine.recovery.enabled = true;
    // Costliest mode first, so short jobs fill the end of a parallel round.
    for (const char* mode : {"failover-hedge", "failstop", "plain"}) {
      for (const sgxb::FarmApp app : {sgxb::FarmApp::kKvStore, sgxb::FarmApp::kMemcached}) {
        for (uint64_t stream = 0; stream < kStreams; ++stream) {
          sgxb::FarmConfig cfg = proto;
          cfg.app = app;
          cfg.load.seed = StreamSeed(stream);
          cfg.machine.seed = cfg.load.seed;
          if (std::strcmp(mode, "plain") != 0) {
            cfg.resilience.enabled = true;
            cfg.resilience.mode = std::strcmp(mode, "failstop") == 0
                                      ? sgxb::RecoveryMode::kFailStop
                                      : sgxb::RecoveryMode::kFailoverHedge;
            cfg.resilience.shard_faults =
                sgxb::ShardFaultPlan::Sampled(cfg.load.seed, kShards, requests, kFaultEvents);
          }
          configs_.push_back(cfg);
          Job job;
          job.label = std::string(sgxb::FarmAppName(app)) + "/" + mode + "/" +
                      std::to_string(stream);
          job.scheme = sgxb::SchemeOf(cfg.policy).id;
          job.group = sgxb::FarmAppName(app);
          job.variant = mode;
          job.call = "RunFarm";
          job.run = [cfg] { return FromFarm(sgxb::RunFarm(cfg), cfg); };
          jobs_.push_back(std::move(job));
        }
      }
    }
    // The load the runs serve, generated here as the program's input (each
    // RunFarm regenerates its stream from the same seed).
    loads_.clear();
    for (uint64_t stream = 0; stream < kStreams; ++stream) {
      sgxb::LoadGenConfig load = proto.load;
      load.seed = StreamSeed(stream);
      loads_.push_back({sgxb::GenerateRequests(load),
                        sgxb::PoissonArrivals(requests, kOfferedRps, proto.ghz, load.seed)});
    }
  }

  static JobOutput FromFarm(const sgxb::FarmResult& r, const sgxb::FarmConfig& cfg) {
    JobOutput o;
    o.digest = FoldCounters(Fold(kFnvBasis, r.digest), r.totals);
    o.maccess = MemAccesses(r.totals);
    o.instructions = r.totals.instructions();
    o.enclaves = cfg.shards;
    o.retries = r.resilience.retries;
    o.hedges = r.resilience.hedges;
    const uint64_t accounted = cfg.resilience.enabled
                                   ? r.resilience.completed + r.resilience.failed_app +
                                         r.resilience.failed_timeout
                                   : r.served + r.dropped;
    if (accounted != cfg.load.requests) {
      o.ok = false;
      o.error = "request accounting: " + std::to_string(accounted) + " of " +
                std::to_string(cfg.load.requests);
    }
    return o;
  }

  void Check(std::span<const JobSample> samples, std::vector<std::string>* failures) override {
    // The farm digest does not depend on phase A's host thread count.
    const uint32_t threads = std::max(2u, sgxb::HostHardwareThreads());
    for (size_t i = 0; i < configs_.size(); ++i) {
      sgxb::FarmConfig cfg = configs_[i];
      cfg.host_threads = threads;
      if (FromFarm(sgxb::RunFarm(cfg), cfg).digest != samples[i].out.digest) {
        failures->push_back("farm digest differs at " + std::to_string(threads) +
                            " host threads: " + jobs_[i].label);
      }
    }
  }

  void Probe(SpanRecorder* spans, Metrics* layers) override {
    SpanRecorder::Scope span;
    spans->Open(&span, "GenerateRequests+PoissonArrivals");
    uint64_t t0 = WallNs();
    for (const sgxb::FarmConfig& cfg : configs_) {
      const std::vector<sgxb::FarmRequest> reqs = sgxb::GenerateRequests(cfg.load);
      const std::vector<uint64_t> arr =
          sgxb::PoissonArrivals(cfg.load.requests, cfg.offered_rps, cfg.ghz, cfg.load.seed);
      if (reqs.size() != arr.size()) {
        std::abort();
      }
    }
    layers->Set("farm.loadgen_ms", "ms", static_cast<double>(WallNs() - t0) / 1e6);
    span.Close();

    const std::vector<sgxb::FarmRequest>& reqs = loads_.front().reqs;
    const sgxb::ConsistentHashRing ring(kShards, configs_.front().vnodes);
    std::vector<uint32_t> primary(reqs.size());
    spans->Open(&span, "ConsistentHashRing::Route");
    t0 = WallNs();
    for (size_t i = 0; i < reqs.size(); ++i) {
      primary[i] = ring.Route(reqs[i].key);
    }
    layers->Set("farm.ring_route_ns", "ns",
                static_cast<double>(WallNs() - t0) / static_cast<double>(reqs.size()));
    span.Close();

    // ResilientTiming on seeded demands of the batch's length, for both
    // faulted modes.
    sgxb::Rng rng(params_.seed ^ 0x7137713771377137ull);
    std::vector<uint64_t> demand(reqs.size());
    for (uint64_t& d : demand) {
      d = 4000 + rng.NextBounded(12000);
    }
    const std::vector<uint8_t> outcome(reqs.size(), 0);
    sgxb::ResilientTimingInput in;
    in.reqs = &reqs;
    in.service_cycles = &demand;
    in.outcome = &outcome;
    in.primary_shard = &primary;
    in.open_loop = true;
    in.offered_rps = kOfferedRps;
    in.seed = StreamSeed(0);
    double timing_ms = 0;
    for (const sgxb::FarmConfig& cfg : configs_) {
      if (cfg.app != sgxb::FarmApp::kKvStore || cfg.load.seed != StreamSeed(0) ||
          !cfg.resilience.enabled) {
        continue;
      }
      sgxb::ResilienceReport report;
      sgxb::LatencyHistogram latency;
      uint64_t served = 0, dropped = 0;
      spans->Open(&span, "ResilientTiming");
      t0 = WallNs();
      sgxb::ResilientTiming(in, cfg.resilience, ring, &report, &latency, &served, &dropped);
      timing_ms += static_cast<double>(WallNs() - t0) / 1e6;
      span.Close();
    }
    layers->Set("farm.timing_ms", "ms", timing_ms);
  }

 private:
  struct Load {
    std::vector<sgxb::FarmRequest> reqs;
    std::vector<uint64_t> arrivals;
  };

  uint64_t StreamSeed(uint64_t stream) const {
    return params_.seed + stream * 0x9e3779b97f4a7c15ull;
  }

  std::vector<sgxb::FarmConfig> configs_;
  std::vector<Load> loads_;
};

// Several workloads' batches run as one: the parts' jobs in part order, set
// up, checked and probed part by part.
class Combined final : public Workload {
 public:
  Combined(const Params& params, std::vector<std::unique_ptr<Workload>> parts)
      : Workload(params), parts_(std::move(parts)) {}

  void Setup() override {
    jobs_.clear();
    for (const std::unique_ptr<Workload>& part : parts_) {
      part->Setup();
      jobs_.insert(jobs_.end(), part->jobs().begin(), part->jobs().end());
    }
  }

  void Check(std::span<const JobSample> samples, std::vector<std::string>* failures) override {
    size_t offset = 0;
    for (const std::unique_ptr<Workload>& part : parts_) {
      part->Check(samples.subspan(offset, part->jobs().size()), failures);
      offset += part->jobs().size();
    }
  }

  void Probe(SpanRecorder* spans, Metrics* layers) override {
    for (const std::unique_ptr<Workload>& part : parts_) {
      part->Probe(spans, layers);
    }
  }

 private:
  std::vector<std::unique_ptr<Workload>> parts_;
};

// ---------------------------------------------------------------------------
// Metric assembly.

// Host times are scaled to the reference speed, round by round (see
// reference.h), and per-round figures are medians over the untraced rounds.
void EndToEnd(const std::vector<Round>& rounds, const std::vector<double>& setup_s,
              Metrics* m) {
  std::vector<double> wall, cpu, maccess_rate, instr_rate, job_ms, wall_scale;
  for (const Round& r : rounds) {
    if (r.traced) {
      continue;
    }
    double maccess = 0, instr = 0;
    for (const JobSample& s : r.samples) {
      maccess += static_cast<double>(s.out.maccess);
      instr += static_cast<double>(s.out.instructions);
      job_ms.push_back(static_cast<double>(s.cpu_ns) / 1e6 * r.cpu_scale());
    }
    const double round_cpu = r.job_cpu_s * r.cpu_scale();
    wall.push_back(r.job_wall_s * r.wall_scale());
    cpu.push_back(round_cpu);
    maccess_rate.push_back(maccess / round_cpu);
    instr_rate.push_back(instr / 1e6 / round_cpu);
    wall_scale.push_back(r.wall_scale());
  }
  m->Set("wall_s", "s", Median(wall));
  m->Set("cpu_s", "s", Median(cpu));
  m->Set("setup_s", "s", Median(setup_s) * Median(wall_scale));
  m->Set("job_cpu_ms_p50", "ms", Percentile(job_ms, 0.5));
  m->Set("job_cpu_ms_p90", "ms", Percentile(job_ms, 0.9));
  m->Set("sim_maccess_per_cpu_s", "1/s", Median(maccess_rate));
  m->Set("sim_minstr_per_cpu_s", "Minstr/s", Median(instr_rate));
}

// Every per-layer metric, zero until measured: a layer the workload leaves
// idle reports 0.
void DeclareLayers(Metrics* m) {
  m->Set("host.reference_ms", "ms", 0);
  m->Set("host.raw_cpu_s", "s", 0);
  m->Set("host_parallel.idle_frac", "ratio", 0);
  for (const sgxb::SchemeDescriptor* d : sgxb::AllSchemes()) {
    m->Set(std::string("policy.") + d->id + ".cpu_s", "s", 0);
  }
  for (const sgxb::SchemeDescriptor* d : sgxb::AllSchemes()) {
    if (!d->baseline) {
      m->Set(std::string("policy.") + d->id + ".host_over_native", "ratio", 0);
    }
  }
  for (const char* suite : {"phoenix", "parsec", "spec"}) {
    m->Set(std::string("workloads.") + suite + ".cpu_s", "s", 0);
  }
  m->Set("enclave.setup_ms", "ms", 0);
  m->Set("sim.replay_ns_per_event", "ns", 0);
  m->Set("sim.replay_share_of_live", "ratio", 0);
  m->Set("trace.record_overhead", "ratio", 0);
  m->Set("trace.record_ms", "ms", 0);
  m->Set("trace.decode_ms", "ms", 0);
  m->Set("trace.decode_ns_per_event", "ns", 0);
  m->Set("trace.events", "count", 0);
  m->Set("trace.encoded_mb", "MB", 0);
  m->Set("trace.capture_ms", "ms", 0);
  m->Set("trace.reprice_us_paging", "us", 0);
  m->Set("trace.reprice_us_fit", "us", 0);
  m->Set("trace.full_replay_ms", "ms", 0);
  m->Set("sweep.run_ms", "ms", 0);
  for (const char* name :
       {"sweep.memo_hits", "sweep.captures_built", "sweep.capture_replays", "sweep.full_replays"}) {
    m->Set(name, "count", 0);
  }
  for (const sgxb::IrEngine engine : IrEngines::kEngines) {
    m->Set(std::string("ir.") + sgxb::IrEngineName(engine) + ".cpu_s", "s", 0);
    m->Set(std::string("ir.") + sgxb::IrEngineName(engine) + ".ns_per_instr", "ns", 0);
  }
  for (const sgxb::WorkloadInfo* w : sgxb::WorkloadRegistry::Instance().BySuite("ir")) {
    m->Set("ir." + w->name + ".jit_over_threaded", "ratio", 0);
  }
  m->Set("ir.decode_hits", "count", 0);
  m->Set("ir.decode_misses", "count", 0);
  m->Set("ir.jit_compiles", "count", 0);
  m->Set("ir.jit_compile_ms", "ms", 0);
  m->Set("ir.jit_code_kb", "KB", 0);
  m->Set("ir.jit_noexec_fallbacks", "count", 0);
  m->Set("ir.checks_inserted", "count", 0);
  m->Set("ir.checks_elided", "count", 0);
  m->Set("farm.loadgen_ms", "ms", 0);
  m->Set("farm.ring_route_ns", "ns", 0);
  for (const char* mode : {"plain", "failstop", "failover-hedge"}) {
    m->Set(std::string("farm.run_ms.") + mode, "ms", 0);
  }
  m->Set("farm.timing_ms", "ms", 0);
  m->Set("farm.retries", "count", 0);
  m->Set("farm.hedges", "count", 0);
  m->Set("bench.trace_overhead_frac", "ratio", 0);
}

// Enclave + Heap construction and teardown, timed from outside (median of 9).
double EnclaveSetupMs() {
  std::vector<double> ms;
  for (int i = 0; i < 9; ++i) {
    const uint64_t t0 = WallNs();
    {
      sgxb::Enclave enclave{sgxb::EnclaveConfig{}};
      sgxb::Heap heap(&enclave, sgxb::MachineSpec{}.heap_reserve);
    }
    ms.push_back(static_cast<double>(WallNs() - t0) / 1e6);
  }
  return Median(ms);
}

// (workers x wall - sum of job wall) / (workers x wall) for one round.
double IdleFrac(const Round& r) {
  double busy = 0;
  for (const JobSample& s : r.samples) {
    busy += static_cast<double>(s.wall_ns) / 1e9;
  }
  const double capacity = r.workers * r.wall_s;
  return (capacity - busy) / capacity;
}

// Per-layer metrics from the traced one-worker rounds: each is the mean over
// those rounds of that round's total, job times scaled to the reference
// speed like the end-to-end ones.
void LayersFromRounds(const std::vector<Job>& jobs, const std::vector<Round>& rounds,
                      Metrics* m) {
  std::vector<double> traced_wall, untraced_wall, reference_ms, raw_cpu;
  double n = 0;
  std::map<std::string, double> sum;
  for (const Round& r : rounds) {
    if (r.workers != kTimedWorkers) {
      continue;
    }
    reference_ms.push_back(r.ref_cpu_ms);
    if (!r.traced) {
      untraced_wall.push_back(r.job_wall_s * r.wall_scale());
      raw_cpu.push_back(r.job_cpu_s);
      continue;
    }
    traced_wall.push_back(r.job_wall_s * r.wall_scale());
    n += 1;
    std::map<std::string, double> scheme_cpu, engine_cpu, engine_instr, kernel_engine_cpu;
    for (size_t i = 0; i < jobs.size(); ++i) {
      const Job& job = jobs[i];
      const JobSample& s = r.samples[i];
      const double cpu = static_cast<double>(s.cpu_ns) / 1e9 * r.cpu_scale();
      const double wall_ms = static_cast<double>(s.wall_ns) / 1e6 * r.wall_scale();
      if (job.call == "WorkloadInfo::run" && !job.scheme.empty() && job.variant.empty()) {
        sum["policy." + job.scheme + ".cpu_s"] += cpu;
        scheme_cpu[job.scheme] += cpu;
      }
      if (job.group == "phoenix" || job.group == "parsec" || job.group == "spec") {
        sum["workloads." + job.group + ".cpu_s"] += cpu;
      }
      if (job.variant == "threaded" || job.variant == "jit") {
        engine_cpu[job.variant] += cpu;
        engine_instr[job.variant] += static_cast<double>(s.out.instructions);
        kernel_engine_cpu[job.group + "/" + job.variant] += cpu;
      }
      if (job.call == "RunFarm") {
        sum["farm.run_ms." + job.variant] += wall_ms;
        sum["farm.retries"] += static_cast<double>(s.out.retries);
        sum["farm.hedges"] += static_cast<double>(s.out.hedges);
      }
      if (job.call == "SweepEngine::Run") {
        sum["sweep.run_ms"] += wall_ms;
        sum["sweep.memo_hits"] += static_cast<double>(s.out.sweep.memo_hits);
        sum["sweep.captures_built"] += static_cast<double>(s.out.sweep.captures_built);
        sum["sweep.capture_replays"] += static_cast<double>(s.out.sweep.capture_replays);
        sum["sweep.full_replays"] += static_cast<double>(s.out.sweep.full_replays);
      }
      sum["ir.checks_inserted"] += s.out.pass.checks_inserted;
      sum["ir.checks_elided"] += s.out.pass.checks_elided_safe +
                                 s.out.pass.checks_elided_redundant +
                                 s.out.pass.checks_elided_infield;
      sum["enclaves"] += static_cast<double>(s.out.enclaves);
    }
    const double native = scheme_cpu["native"];
    for (const auto& [scheme, cpu] : scheme_cpu) {
      if (scheme != "native" && native > 0) {
        sum["policy." + scheme + ".host_over_native"] += cpu / native;
      }
    }
    for (const auto& [engine, cpu] : engine_cpu) {
      sum["ir." + engine + ".cpu_s"] += cpu;
      if (engine_instr[engine] > 0) {
        sum["ir." + engine + ".ns_per_instr"] += cpu * 1e9 / engine_instr[engine];
      }
    }
    for (const sgxb::WorkloadInfo* w : sgxb::WorkloadRegistry::Instance().BySuite("ir")) {
      const double thr = kernel_engine_cpu[w->name + "/threaded"];
      if (thr > 0) {
        sum["ir." + w->name + ".jit_over_threaded"] += kernel_engine_cpu[w->name + "/jit"] / thr;
      }
    }
    const sgxb::IrExecStatsSnapshot& ir = r.ir_delta;
    sum["ir.decode_hits"] += static_cast<double>(ir.decode_hits);
    sum["ir.decode_misses"] += static_cast<double>(ir.decode_misses);
    sum["ir.jit_compiles"] += static_cast<double>(ir.jit_compiles);
    sum["ir.jit_compile_ms"] += static_cast<double>(ir.jit_compile_ns) / 1e6;
    sum["ir.jit_code_kb"] += static_cast<double>(ir.jit_compiled_bytes) / 1024.0;
    sum["ir.jit_noexec_fallbacks"] += static_cast<double>(ir.jit_noexec_fallbacks);
  }
  if (n == 0) {
    return;
  }
  for (const auto& [name, total] : sum) {
    if (name != "enclaves") {
      m->Set(name, "", total / n);  // unit already declared
    }
  }
  const double enclaves = sum["enclaves"] / n;
  if (enclaves > 0) {
    m->Set("enclave.setup_ms", "ms", EnclaveSetupMs() * enclaves);
  }
  m->Set("bench.trace_overhead_frac", "ratio", Median(traced_wall) / Median(untraced_wall) - 1);
  m->Set("host.reference_ms", "ms", Median(reference_ms));
  m->Set("host.raw_cpu_s", "s", Median(raw_cpu));
}

// ---------------------------------------------------------------------------
// Pinned digests.

std::map<std::string, uint64_t> ReadPinned(const std::string& path, bool* found) {
  std::map<std::string, uint64_t> out;
  std::ifstream in(path);
  *found = in.good();
  std::string label, hex;
  while (in >> label >> hex) {
    out[label] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return out;
}

bool WritePinned(const std::string& path, const std::vector<Job>& jobs, const Round& round) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::fprintf(f, "%s %016" PRIx64 "\n", jobs[i].label.c_str(), round.samples[i].out.digest);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Main.

struct Args {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string pinned;
  bool write_pinned = false;
  std::string report;
  std::string spans;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "hostbench: %s\n"
               "usage: hostbench --workload paper_live|ir_sweep_farm\n"
               "                 --seed N --seconds S --trace 0|1 [--size full|tiny]\n"
               "                 [--pinned FILE [--write-pinned]] [--report FILE] "
               "[--spans FILE]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-pinned") {
      a.write_pinned = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        Usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0) || a.seconds > 3600) {
        Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      a.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") {
        Usage("--size takes full or tiny");
      }
      a.tiny = v == "tiny";
    } else if (flag == "--pinned") {
      a.pinned = v;
    } else if (flag == "--report") {
      a.report = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  return a;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Params params;
  params.seed = args.seed;
  params.tiny = args.tiny;
  params.parallel = std::min(4u, sgxb::HostHardwareThreads());

  SpanRecorder spans;
  std::unique_ptr<Workload> workload;
  if (args.workload == "paper_live") {
    workload = std::make_unique<PaperLive>(params);
  } else if (args.workload == "ir_sweep_farm") {
    std::vector<std::unique_ptr<Workload>> parts;
    parts.push_back(std::make_unique<IrEngines>(params));
    parts.push_back(std::make_unique<TraceSweep>(params));
    parts.push_back(std::make_unique<FarmServe>(params));
    workload = std::make_unique<Combined>(params, std::move(parts));
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const bool jit_available = sgxb::jit::JitExecutableAvailable();
  std::fprintf(stderr, "[hostbench] workload=%s seed=%" PRIu64 " workers=%u nproc=%u jit=%s\n",
               args.workload.c_str(), args.seed, kTimedWorkers, sgxb::HostHardwareThreads(),
               jit_available ? "available" : "noexec-fallback");

  // Set-up: registry init, inputs and the job batch. It runs kSetupReps
  // times, spread over the run - before the first round, then after the
  // round that crosses each further share of --seconds - so its median sees
  // the same machine conditions as the rounds. Each set-up rebuilds an
  // identical batch.
  std::vector<double> setup_s;
  auto setup = [&] {
    const uint64_t t0 = WallNs();
    sgxb::WorkloadRegistry::Instance();
    workload->Setup();
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
  };
  setup();
  const std::vector<Job>& jobs = workload->jobs();

  // Timed rounds. With --trace 1, odd rounds are traced.
  std::vector<Round> rounds;
  size_t untraced_jobs = 0;
  const uint64_t start = WallNs();
  for (;;) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(RunRound(jobs, kTimedWorkers, &spans, traced));
    // Only the first round's sweep answers are checked beyond their digests;
    // dropping the others' keeps peak RSS independent of the round count.
    if (rounds.size() > 1) {
      for (JobSample& s : rounds.back().samples) {
        s.out.replays = {};
      }
    }
    untraced_jobs += traced ? 0 : jobs.size();
    const double elapsed = static_cast<double>(WallNs() - start) / 1e9;
    const bool enough = elapsed >= args.seconds && untraced_jobs >= kMinTimedJobs &&
                        (!args.trace || rounds.size() >= 2);
    if (enough || elapsed > 4 * args.seconds + 60) {
      break;
    }
    if (setup_s.size() < kSetupReps &&
        elapsed >= args.seconds * static_cast<double>(setup_s.size()) / kSetupReps) {
      setup();
    }
  }
  while (setup_s.size() < kSetupReps) {
    setup();
  }
  // The traced run adds one round at min(4, nproc) workers, for the host
  // parallel layer's idle share; its outputs are checked like the others'.
  if (args.trace) {
    rounds.push_back(RunRound(jobs, params.parallel, &spans, true));
  }
  const double peak_rss_mb = PeakRssMb();

  // Output checks, outside the timed region.
  std::vector<std::string> failures;
  size_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      ++attempted;
      const JobOutput& out = r.samples[i].out;
      if (!out.ok) {
        ++failed;
        failures.push_back(jobs[i].label + ": " + out.error);
      } else if (out.digest != rounds.front().samples[i].out.digest) {
        ++failed;
        failures.push_back(jobs[i].label + ": result differs between rounds");
      }
    }
  }
  workload->Check(rounds.front().samples, &failures);
  if (!args.tiny && args.seed == kPinnedSeed && !args.pinned.empty()) {
    if (args.write_pinned) {
      if (!WritePinned(args.pinned, jobs, rounds.front())) {
        failures.push_back("cannot write " + args.pinned);
      }
    } else {
      bool found = false;
      const std::map<std::string, uint64_t> pinned = ReadPinned(args.pinned, &found);
      if (!found) {
        failures.push_back("no pinned digests at " + args.pinned);
      }
      for (size_t i = 0; found && i < jobs.size(); ++i) {
        auto it = pinned.find(jobs[i].label);
        if (it == pinned.end() || it->second != rounds.front().samples[i].out.digest) {
          failures.push_back(jobs[i].label + ": differs from the pinned digest");
        }
      }
    }
  }
  uint64_t sim_digest = kFnvBasis;
  for (const JobSample& s : rounds.front().samples) {
    sim_digest = Fold(sim_digest, s.out.digest);
  }

  Metrics metrics;
  if (args.trace) {
    DeclareLayers(&metrics);
    LayersFromRounds(jobs, rounds, &metrics);
    metrics.Set("host_parallel.idle_frac", "", IdleFrac(rounds.back()));
    spans.Enable(true);
    workload->Probe(&spans, &metrics);
    spans.Enable(false);
  } else {
    EndToEnd(rounds, setup_s, &metrics);
    metrics.Set("peak_rss_mb", "MB", peak_rss_mb);
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "[hostbench] FAIL %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  size_t traced_rounds = 0;
  for (const Round& r : rounds) {
    traced_rounds += r.traced ? 1 : 0;
  }
  std::fprintf(stderr,
               "[hostbench] jobs=%zu rounds=%zu (traced %zu) sim_digest=%016" PRIx64
               " correct=%s\n",
               jobs.size(), rounds.size(), traced_rounds, sim_digest, correct ? "yes" : "no");

  std::ostringstream metrics_json;
  metrics_json << "{";
  for (size_t i = 0; i < metrics.list().size(); ++i) {
    const Metric& m = metrics.list()[i];
    metrics_json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
                 << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  metrics_json << "}";

  if (!args.spans.empty() && args.trace && !spans.WriteJson(args.spans)) {
    std::fprintf(stderr, "[hostbench] cannot write %s\n", args.spans.c_str());
  }
  if (!args.report.empty()) {
    std::FILE* f = std::fopen(args.report.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                      ", \"size\": \"%s\", \"trace\": %d, \"workers\": %u, \"nproc\": %u, "
                      "\"jit\": \"%s\", \"load_model\": \"closed loop, %u host worker(s), "
                      "fixed batch of %zu jobs per round\", \"setup_s\": [",
                   args.workload.c_str(), args.seed, args.tiny ? "tiny" : "full",
                   args.trace ? 1 : 0, kTimedWorkers, sgxb::HostHardwareThreads(),
                   jit_available ? "available" : "noexec-fallback", kTimedWorkers, jobs.size());
      for (size_t i = 0; i < setup_s.size(); ++i) {
        std::fprintf(f, "%s%.6f", i == 0 ? "" : ", ", setup_s[i]);
      }
      std::fprintf(f, "], \"rounds\": [");
      for (size_t i = 0; i < rounds.size(); ++i) {
        const Round& r = rounds[i];
        std::fprintf(f,
                     "%s{\"traced\": %s, \"workers\": %u, \"wall_s\": %.6f, "
                     "\"job_wall_s\": %.6f, \"job_cpu_s\": %.6f, \"ref_wall_ms\": %.4f, "
                     "\"ref_cpu_ms\": %.4f}",
                     i == 0 ? "" : ", ", r.traced ? "true" : "false", r.workers, r.wall_s,
                     r.job_wall_s, r.job_cpu_s, r.ref_wall_ms, r.ref_cpu_ms);
      }
      // Each job's median thread CPU over the one-worker rounds.
      std::fprintf(f, "], \"job_cpu_ms\": {");
      for (size_t i = 0; i < jobs.size(); ++i) {
        std::vector<double> ms;
        for (const Round& r : rounds) {
          if (r.workers == kTimedWorkers) {
            ms.push_back(static_cast<double>(r.samples[i].cpu_ns) / 1e6);
          }
        }
        std::fprintf(f, "%s\"%s\": %.3f", i == 0 ? "" : ", ", jobs[i].label.c_str(),
                     Median(ms));
      }
      std::fprintf(f, "}, \"sim_digest\": \"%016" PRIx64 "\", \"failures\": %zu, "
                      "\"metrics\": %s}\n",
                   sim_digest, failures.size(), metrics_json.str().c_str());
      std::fclose(f);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
