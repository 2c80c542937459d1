// sweep_tool: drive the parallel sweep engine over a (trace x SimConfig)
// grid and measure it against the sequential-replay baseline. Usage (one
// command line):
//
//   sweep_tool --workloads=kmeans,matrixmul --policies=sgxbounds,sgx
//              --epc_points=16 --cost_points=2 --modes=both --mode=verify
//
// The grid is the cross product of three config axes per recorded trace:
//   EPC size   : --epc_points sizes, linearly spaced over [--epc_min_mib,
//                --epc_max_mib]
//   cost table : --cost_points tables; table i scales the memory-pressure
//                prices (dram, mee_line, epc_fault) by (100 + 50*i)%
//   enclave    : --modes=on|off|both
//   L3 size    : --l3_points geometries (size >> i). Points beyond the first
//                change cache outcomes, so the engine must fall back to full
//                replay for them — included to exercise that path.
//
// --mode selects what runs: `sweep` (the engine), `sequential` (one full
// ReplayDecoded per config on one thread — the baseline the engine is
// benchmarked against), or `verify` (both, asserting bit-identical results).
// Stdout — a per-trace digest table — is identical across modes and thread
// counts; host timings go to stderr and, under --json, to BENCH_sweep.json.
//
// Traces either come from fresh recordings (--workloads x --policies) or
// from saved files (--traces=a.sgxtrace,b.sgxtrace — mmap-loaded). A file
// that does not load, or a complete trace whose event stream stops at a
// corrupt event, exits with status 2, as a bad flag does.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/digest.h"
#include "src/trace/record.h"
#include "src/trace/sweep.h"
#include "src/trace/trace_io.h"

namespace sgxb {
namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    if (comma > pos) {
      out.push_back(csv.substr(pos, comma - pos));
    }
    pos = comma + 1;
  }
  return out;
}

// FNV-fold a result into a digest: any single-bit divergence from the
// sequential baseline shows up here (and fails --mode=verify outright).
uint64_t FoldResult(uint64_t h, const ReplayResult& r) {
  const uint64_t words[] = {r.cycles, r.counters.cycles, r.counters.llc_misses,
                            r.counters.epc_faults, r.counters.minor_faults};
  for (uint64_t w : words) {
    h = FnvMix(h, w);
  }
  return h;
}

bool SameResult(const ReplayResult& a, const ReplayResult& b) {
  return a.cycles == b.cycles && a.counters == b.counters &&
         a.cpu_count == b.cpu_count && a.events_replayed == b.events_replayed;
}

struct GridAxes {
  std::vector<uint64_t> epc_bytes;
  std::vector<CostModel> costs;
  std::vector<bool> enclave;
  std::vector<uint32_t> l3_shift;
};

// Appends the header's grid to `out`. Every config must be a machine the
// simulator can build; on the first that is not, prints the flag behind it
// and returns false. The header's own config is valid, so a bad point comes
// from the L3 axis or the EPC axis.
bool BuildConfigs(const TraceHeader& header, const GridAxes& axes,
                  std::vector<SimConfig>* out) {
  const SimConfig base = SimConfigFromHeader(header);
  std::string error;
  for (uint32_t shift : axes.l3_shift) {
    for (bool enclave : axes.enclave) {
      for (const CostModel& costs : axes.costs) {
        for (uint64_t epc : axes.epc_bytes) {
          SimConfig cfg = base;
          cfg.l3_bytes = base.l3_bytes >> shift;
          cfg.enclave_mode = enclave;
          cfg.costs = costs;
          cfg.epc_bytes = epc;
          if (!ValidateSimConfig(cfg, &error)) {
            SimConfig l3_only = base;
            l3_only.l3_bytes = cfg.l3_bytes;
            std::fprintf(stderr, "%s: %s\n",
                         ValidateSimConfig(l3_only, nullptr) ? "--epc_min_mib/--epc_max_mib"
                                                             : "--l3_points",
                         error.c_str());
            return false;
          }
          out->push_back(cfg);
        }
      }
    }
  }
  return true;
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int Main(int argc, char** argv) {
  FlagParser parser;
  std::string workloads_csv = "kmeans,matrixmul";
  std::string traces_csv;
  std::string size = "S";
  std::string mode = "sweep";
  std::string modes = "both";
  int64_t sim_threads = 1;
  uint64_t epc_points = 16;
  uint64_t epc_min_mib = 8;
  uint64_t epc_max_mib = 128;
  uint64_t cost_points = 2;
  uint64_t l3_points = 1;
  parser.AddString("workloads", &workloads_csv, "comma-separated workloads to record");
  parser.AddString("traces", &traces_csv,
                   "comma-separated .sgxtrace files to sweep instead of recording");
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class for recordings");
  parser.AddChoice("mode", &mode, {"sweep", "sequential", "verify"},
                   "sweep: the engine; sequential: one full replay per config on one "
                   "thread (the baseline); verify: both + bit-identity check");
  parser.AddChoice("modes", &modes, {"on", "off", "both"}, "enclave axis");
  parser.AddInt("sim_threads", &sim_threads, "simulated worker threads for recordings");
  parser.AddUint("epc_points", &epc_points, "EPC axis: number of sizes");
  parser.AddUint("epc_min_mib", &epc_min_mib, "EPC axis: smallest size (MiB)");
  parser.AddUint("epc_max_mib", &epc_max_mib, "EPC axis: largest size (MiB)");
  parser.AddUint("cost_points", &cost_points,
                 "cost axis: table i scales dram/mee_line/epc_fault by (100+50*i)%");
  parser.AddUint("l3_points", &l3_points,
                 "L3 axis: geometry i halves the L3 i times; points past the first "
                 "force the full-replay fallback");
  AddPoliciesFlag(parser);
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);

  // Point counts are bounded before any axis is built. The caps keep the grid
  // to a size a run can hold: 256 EPC points are 16 MiB steps over the whole
  // 1..4096 MiB range; cost table i scales uint32_t prices by (100+50*i)%,
  // which must not wrap; the L3 axis shifts the 64-bit L3 size once per point
  // (ValidateSimConfig then rejects the geometries that leave no L3).
  const auto points_ok = [](const char* flag, uint64_t points, uint64_t max) {
    if (points >= 1 && points <= max) {
      return true;
    }
    std::fprintf(stderr, "--%s: need 1..%" PRIu64 " points, got %" PRIu64 "\n", flag, max,
                 points);
    return false;
  };
  if (!points_ok("epc_points", epc_points, 256) || !points_ok("cost_points", cost_points, 16) ||
      !points_ok("l3_points", l3_points, 64)) {
    return 2;
  }
  const uint32_t recording_threads = SimThreadsOrExit("sim_threads", sim_threads);
  // 4096 MiB is the largest EPC SimConfig accepts; the bound also keeps the
  // axis arithmetic below from wrapping.
  if (epc_min_mib > epc_max_mib || epc_max_mib > 4096) {
    std::fprintf(stderr,
                 "--epc_min_mib/--epc_max_mib: need min <= max <= 4096, got %" PRIu64
                 "..%" PRIu64 "\n",
                 epc_min_mib, epc_max_mib);
    return 2;
  }

  PrintReproHeader("sweep", MachineSpec{});

  // --- assemble the traces -------------------------------------------------
  using Clock = std::chrono::steady_clock;
  struct NamedTrace {
    std::string label;
    DecodedTrace decoded;
  };
  std::vector<NamedTrace> traces;
  if (!traces_csv.empty()) {
    for (const std::string& path : SplitCsv(traces_csv)) {
      MappedTrace mapped;
      std::string error;
      if (!mapped.Load(path, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      NamedTrace t;
      t.label = mapped.header().workload + "/" +
                PolicyName(static_cast<PolicyKind>(mapped.header().policy));
      t.decoded = DecodedTrace(mapped.header(), mapped.summary(), mapped.events_begin(),
                               mapped.events_end());
      if (!t.decoded.whole()) {
        std::fprintf(stderr, "%s\n",
                     CorruptStreamMessage(path, t.decoded.event_count(), mapped.summary())
                         .c_str());
        return 2;
      }
      traces.push_back(std::move(t));
    }
  } else {
    const std::vector<PolicyKind> policies = ResolvePolicies();
    std::vector<const WorkloadInfo*> workloads;
    for (const std::string& name : SplitCsv(workloads_csv)) {
      const WorkloadInfo* w = WorkloadRegistry::Instance().Find(name);
      if (w == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 1;
      }
      workloads.push_back(w);
    }
    WorkloadConfig cfg;
    cfg.size = ParseSizeClass(size);
    cfg.threads = recording_threads;
    const size_t np = policies.size();
    std::vector<RecordedRun> recs(workloads.size() * np);
    std::fprintf(stderr, "[sweep] recording %zu (workload, policy) trace(s)...\n",
                 recs.size());
    ParallelFor(recs.size(), ResolveBenchThreads(), [&](size_t i) {
      recs[i] = RecordWorkloadRun(*workloads[i / np], policies[i % np], MachineSpec{},
                                  PolicyOptions{}, cfg);
    });
    const auto decode_start = Clock::now();
    for (size_t i = 0; i < recs.size(); ++i) {
      NamedTrace t;
      t.label = workloads[i / np]->name + "/" + PolicyName(policies[i % np]);
      t.decoded = DecodedTrace(recs[i].trace);
      traces.push_back(std::move(t));
    }
    std::fprintf(stderr, "[sweep] decoded %zu trace(s) in %.3f s\n", traces.size(),
                 Seconds(decode_start, Clock::now()));
  }

  // --- build the config grid ----------------------------------------------
  GridAxes axes;
  for (uint64_t i = 0; i < epc_points; ++i) {
    const uint64_t mib =
        epc_points == 1
            ? epc_min_mib
            : epc_min_mib + (epc_max_mib - epc_min_mib) * i / (epc_points - 1);
    axes.epc_bytes.push_back(mib * kMiB);
  }
  for (uint64_t i = 0; i < cost_points; ++i) {
    CostModel costs;  // axis scales the memory-pressure prices off the defaults
    const uint64_t pct = 100 + 50 * i;
    costs.dram = static_cast<uint32_t>(costs.dram * pct / 100);
    costs.mee_line = static_cast<uint32_t>(costs.mee_line * pct / 100);
    costs.epc_fault = static_cast<uint32_t>(costs.epc_fault * pct / 100);
    axes.costs.push_back(costs);
  }
  if (modes == "on" || modes == "both") {
    axes.enclave.push_back(true);
  }
  if (modes == "off" || modes == "both") {
    axes.enclave.push_back(false);
  }
  for (uint64_t i = 0; i < l3_points; ++i) {
    axes.l3_shift.push_back(static_cast<uint32_t>(i));
  }

  std::vector<SweepRequest> grid;
  std::vector<size_t> trace_of;  // grid index -> trace index
  for (size_t t = 0; t < traces.size(); ++t) {
    std::vector<SimConfig> configs;
    if (!BuildConfigs(traces[t].decoded.header(), axes, &configs)) {
      return 2;
    }
    for (const SimConfig& cfg : configs) {
      SweepRequest req;
      req.trace = &traces[t].decoded;
      req.config = cfg;
      grid.push_back(req);
      trace_of.push_back(t);
    }
  }
  const size_t configs_per_trace = traces.empty() ? 0 : grid.size() / traces.size();
  std::fprintf(stderr, "[sweep] grid: %zu trace(s) x %zu config(s) = %zu request(s)\n",
               traces.size(), configs_per_trace, grid.size());

  // --- run -----------------------------------------------------------------
  const uint32_t threads = ResolveBenchThreads();
  std::vector<ReplayResult> swept;
  std::vector<ReplayResult> sequential;
  double sweep_seconds = 0;
  double sequential_seconds = 0;
  SweepStats stats;
  if (mode == "sweep" || mode == "verify") {
    SweepOptions opt;
    opt.threads = threads;
    SweepEngine engine(opt);
    const auto start = Clock::now();
    swept = engine.Run(grid);
    sweep_seconds = Seconds(start, Clock::now());
    stats = engine.stats();
    std::fprintf(stderr,
                 "[sweep] engine: %.3f s on %u thread(s) — %" PRIu64 " memo hits, %" PRIu64
                 " capture(s), %" PRIu64 " re-priced, %" PRIu64 " full replay(s)\n",
                 sweep_seconds, threads, stats.memo_hits, stats.captures_built,
                 stats.capture_replays, stats.full_replays);
  }
  if (mode == "sequential" || mode == "verify") {
    const auto start = Clock::now();
    sequential.resize(grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
      sequential[i] = ReplayDecoded(*grid[i].trace, grid[i].config);
    }
    sequential_seconds = Seconds(start, Clock::now());
    std::fprintf(stderr, "[sweep] sequential baseline: %.3f s on 1 thread\n",
                 sequential_seconds);
  }
  if (mode == "verify") {
    for (size_t i = 0; i < grid.size(); ++i) {
      if (!SameResult(swept[i], sequential[i])) {
        std::printf("VERIFY FAIL: request %zu (%s) diverges: sweep %" PRIu64
                    " cycles vs sequential %" PRIu64 "\n",
                    i, traces[trace_of[i]].label.c_str(), swept[i].cycles,
                    sequential[i].cycles);
        return 1;
      }
    }
  }
  const std::vector<ReplayResult>& results = swept.empty() ? sequential : swept;

  // --- deterministic digest ------------------------------------------------
  Table digest({"trace", "configs", "digest", "min cycles", "max cycles"});
  uint64_t total_digest = kFnvOffset;
  for (size_t t = 0; t < traces.size(); ++t) {
    uint64_t h = kFnvOffset;
    uint64_t min_cycles = UINT64_MAX, max_cycles = 0;
    size_t count = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
      if (trace_of[i] != t) {
        continue;
      }
      h = FoldResult(h, results[i]);
      min_cycles = std::min(min_cycles, results[i].cycles);
      max_cycles = std::max(max_cycles, results[i].cycles);
      ++count;
    }
    total_digest ^= h + 0x9e3779b97f4a7c15ull * (t + 1);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
    digest.AddRow({traces[t].label, std::to_string(count), hex,
                   std::to_string(min_cycles), std::to_string(max_cycles)});
  }
  digest.Print();
  if (mode == "verify") {
    std::printf("verify: %zu/%zu results bit-identical to sequential replay\n",
                grid.size(), grid.size());
  }
  if (sweep_seconds > 0 && sequential_seconds > 0) {
    std::fprintf(stderr, "[sweep] speedup vs sequential grid: %.1fx\n",
                 sequential_seconds / sweep_seconds);
  }

  // --- machine-readable artifact ------------------------------------------
  if (JsonFlag()) {
    std::FILE* f = std::fopen("BENCH_sweep.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[json] cannot write BENCH_sweep.json\n");
      return 1;
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, total_digest);
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"binary\": \"sweep\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", mode.c_str());
    std::fprintf(f, "  \"bench_threads\": %u,\n", threads);
    std::fprintf(f, "  \"traces\": %zu,\n", traces.size());
    std::fprintf(f, "  \"configs_per_trace\": %zu,\n", configs_per_trace);
    std::fprintf(f, "  \"grid_requests\": %zu,\n", grid.size());
    std::fprintf(f, "  \"sweep_seconds\": %.3f,\n", sweep_seconds);
    std::fprintf(f, "  \"sequential_seconds\": %.3f,\n", sequential_seconds);
    std::fprintf(f, "  \"speedup\": %.2f,\n",
                 sweep_seconds > 0 && sequential_seconds > 0
                     ? sequential_seconds / sweep_seconds
                     : 0.0);
    std::fprintf(f,
                 "  \"stats\": {\"requests\": %" PRIu64 ", \"memo_hits\": %" PRIu64
                 ", \"captures_built\": %" PRIu64 ", \"capture_replays\": %" PRIu64
                 ", \"full_replays\": %" PRIu64 "},\n",
                 stats.requests, stats.memo_hits, stats.captures_built,
                 stats.capture_replays, stats.full_replays);
    std::fprintf(f, "  \"digest\": \"%s\"\n}\n", hex);
    std::fclose(f);
    std::fprintf(stderr, "[json] wrote BENCH_sweep.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) { return sgxb::Main(argc, argv); }
