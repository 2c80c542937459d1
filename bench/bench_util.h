// Shared reporting helpers for the figure/table reproduction binaries.
//
// Every binary prints: (1) the paper's expected numbers for that experiment,
// (2) the measured rows in the same format, so EXPERIMENTS.md comparisons
// are a copy-paste. Crashed runs (MPX OOM) print as "crash", matching the
// missing bars in the paper's figures.

#ifndef SGXBOUNDS_BENCH_BENCH_UTIL_H_
#define SGXBOUNDS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/ir_engine.h"
#include "src/common/host_parallel.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/policy/registry.h"
#include "src/trace/trace_format.h"
#include "src/workloads/workload.h"

namespace sgxb {

// --- host-parallel driver ---------------------------------------------------------
//
// Each (workload, policy) simulation is deterministic and owns its Enclave,
// so independent runs are dispatched across host threads (--bench_threads)
// and collected into slots indexed by job order: stdout is byte-identical
// for any thread count.

inline int64_t& BenchThreadsFlag() {
  static int64_t v = 0;  // 0 = hardware concurrency
  return v;
}

inline bool& SelftimeFlag() {
  static bool v = false;
  return v;
}

inline bool& JsonFlag() {
  static bool v = false;
  return v;
}

// Registers the shared driver flags; call before FlagParser::Parse.
inline void AddBenchDriverFlags(FlagParser& parser) {
  parser.AddInt("bench_threads", &BenchThreadsFlag(),
                "host threads for dispatching independent simulations "
                "(0 = hardware concurrency)");
  parser.AddBool("selftime", &SelftimeFlag(),
                 "print host wall-clock per simulation to stderr");
  parser.AddBool("json", &JsonFlag(),
                 "write measured rows + host timings to BENCH_<binary>.json");
  parser.AddCallback(
      "ir_engine",
      [](const std::string& value) { return ParseIrEngine(value, &DefaultIrEngine()); },
      "IR execution engine for interpreter-driven workloads",
      IrEngineName(DefaultIrEngine()), {"reference", "threaded", "jit"});
}

inline uint32_t ResolveBenchThreads() {
  const int64_t v = BenchThreadsFlag();
  return v <= 0 ? HostHardwareThreads() : static_cast<uint32_t>(v);
}

// Simulated worker threads (--threads, sweep_tool's --sim_threads): each is a
// Cpu of the one simulated machine, so the count is a machine size like the
// EPC and is bounded the same way. The paper's runs use at most 8.
inline constexpr int64_t kMaxSimThreads = 64;

// Returns the value of --`flag` as a simulated thread count; prints a message
// naming the flag and exits(2) when it is outside [1, kMaxSimThreads].
inline uint32_t SimThreadsOrExit(const char* flag, int64_t value) {
  if (value < 1 || value > kMaxSimThreads) {
    std::fprintf(stderr, "--%s: %lld simulated threads is outside [1, %lld]\n", flag,
                 static_cast<long long>(value), static_cast<long long>(kMaxSimThreads));
    std::exit(2);
  }
  return static_cast<uint32_t>(value);
}

// --- the shared --opts= flag -------------------------------------------------------
//
// Check-optimization pass selection for the scheme-generic pipeline
// (src/ir/opt). The default "default" keeps each scheme's registry defaults
// (paper four: the SS4.4 pair; shadow: all five), so default stdout is
// unchanged. Any other value overrides every pass flag explicitly:
//
//   --opts=none                 no passes
//   --opts=paper                the SS4.4 pair (safe + hoist)
//   --opts=all                  all five passes
//   --opts=safe,redundant,...   exactly the named passes
//
// A flag only takes effect where the scheme's lowering declares the pass
// legal (CheckSchemeLowering supports mask), so e.g. --opts=all still leaves
// ASan/MPX instrumentation untouched except for redundant-check elimination.

inline std::string& OptsFlag() {
  static std::string v = "default";
  return v;
}

inline void AddOptsFlag(FlagParser& parser) {
  parser.AddString("opts", &OptsFlag(),
                   "check-optimization passes: comma list of "
                   "safe|hoist|redundant|pattern|infield, or none|paper|all|default "
                   "(default = each scheme's registry defaults)");
}

// Applies --opts on top of `base` (normally SchemeOf(kind).default_options).
// Unknown pass names print the valid spellings and exit(2).
inline PolicyOptions ResolveOptions(PolicyOptions base) {
  const std::string& csv = OptsFlag();
  if (csv == "default") {
    return base;
  }
  base.opt_safe_elision = false;
  base.opt_hoist_checks = false;
  base.opt_redundant_elision = false;
  base.opt_pattern_loops = false;
  base.opt_infield_elision = false;
  if (csv == "none") {
    return base;
  }
  if (csv == "paper") {
    base.opt_safe_elision = true;
    base.opt_hoist_checks = true;
    return base;
  }
  if (csv == "all") {
    base.opt_safe_elision = true;
    base.opt_hoist_checks = true;
    base.opt_redundant_elision = true;
    base.opt_pattern_loops = true;
    base.opt_infield_elision = true;
    return base;
  }
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item == "safe") {
      base.opt_safe_elision = true;
    } else if (item == "hoist") {
      base.opt_hoist_checks = true;
    } else if (item == "redundant") {
      base.opt_redundant_elision = true;
    } else if (item == "pattern") {
      base.opt_pattern_loops = true;
    } else if (item == "infield") {
      base.opt_infield_elision = true;
    } else {
      std::fprintf(stderr,
                   "invalid --opts item '%s' (valid: safe|hoist|redundant|pattern|"
                   "infield, or none|paper|all|default)\n",
                   item.c_str());
      std::exit(2);
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return base;
}

// --- machine-readable output (--json) ---------------------------------------------
//
// Every measured row is also recorded host-side (label, simulated result,
// host wall-clock) and, under --json, rewritten to BENCH_<binary>.json after
// each job batch so the file is complete whenever the process exits. The
// JSON is a host-measurement artifact: simulated stdout stays engine- and
// flag-invariant.

struct BenchJsonRow {
  std::string label;
  std::string tag;
  RunResult result;
  double host_ms = 0;
};

struct BenchJsonState {
  std::mutex mu;
  std::string binary = "bench";
  std::vector<BenchJsonRow> rows;
  double total_ms = 0;
  // Optional driver-provided summary block (pre-rendered JSON object),
  // emitted as "summary": {...} - see bench/ir_engine.cc for the per-
  // (workload, policy) speedup_vs_reference geomeans.
  std::string summary_json;
};

inline BenchJsonState& JsonState() {
  static BenchJsonState s;
  return s;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Rewrites BENCH_<binary>.json from the accumulated rows. Called with
// JsonState().mu held.
inline void WriteBenchJsonLocked() {
  BenchJsonState& s = JsonState();
  const std::string path = "BENCH_" + s.binary + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[json] cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"%s\",\n", JsonEscape(s.binary).c_str());
  std::fprintf(f, "  \"ir_engine\": \"%s\",\n", IrEngineName(DefaultIrEngine()));
  std::fprintf(f, "  \"bench_threads\": %u,\n",
               BenchThreadsFlag() <= 0 ? HostHardwareThreads()
                                       : static_cast<uint32_t>(BenchThreadsFlag()));
  std::fprintf(f, "  \"selftime_total_seconds\": %.3f,\n", s.total_ms / 1000.0);
  if (!s.summary_json.empty()) {
    std::fprintf(f, "  \"summary\": %s,\n", s.summary_json.c_str());
  }
  std::fprintf(f, "  \"rows\": [");
  for (size_t i = 0; i < s.rows.size(); ++i) {
    const BenchJsonRow& row = s.rows[i];
    std::fprintf(f,
                 "%s\n    {\"label\": \"%s\", \"tag\": \"%s\", \"policy\": \"%s\", "
                 "\"cycles\": %llu, \"peak_vm_bytes\": %llu, \"crashed\": %s, "
                 "\"trap\": \"%s\", \"host_ms\": %.3f",
                 i == 0 ? "" : ",", JsonEscape(row.label).c_str(),
                 JsonEscape(row.tag).c_str(), PolicyName(row.result.kind),
                 static_cast<unsigned long long>(row.result.cycles),
                 static_cast<unsigned long long>(row.result.peak_vm_bytes),
                 row.result.crashed ? "true" : "false",
                 row.result.crashed ? TrapKindName(row.result.trap) : "",
                 row.host_ms);
    // Check-pipeline statistics, present only for rows whose body ran IR
    // instrumentation (the "ir" suite, the fig10 ablation).
    if (row.result.pass_stats.Any()) {
      const CheckPassStats& p = row.result.pass_stats;
      std::fprintf(f,
                   ", \"checks_inserted\": %llu, \"elided_safe\": %llu, "
                   "\"elided_redundant\": %llu, \"elided_infield\": %llu, "
                   "\"hoisted\": %llu, \"pattern_hoisted\": %llu",
                   static_cast<unsigned long long>(p.checks_inserted),
                   static_cast<unsigned long long>(p.checks_elided_safe),
                   static_cast<unsigned long long>(p.checks_elided_redundant),
                   static_cast<unsigned long long>(p.checks_elided_infield),
                   static_cast<unsigned long long>(p.checks_hoisted),
                   static_cast<unsigned long long>(p.checks_pattern_hoisted));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

// Installs/refreshes the summary block and rewrites the JSON file (no-op
// without --json, like the row path).
inline void SetBenchJsonSummary(std::string summary_json) {
  BenchJsonState& s = JsonState();
  std::lock_guard<std::mutex> lock(s.mu);
  s.summary_json = std::move(summary_json);
  if (JsonFlag()) {
    WriteBenchJsonLocked();
  }
}

// Reproducibility banner: printed first by every figure/table binary so two
// result sets are comparable at a glance. The cost-table id is the FNV hash
// of every cycle price in the model (see CostTableId); runs with different
// ids are not comparable.
inline void PrintReproHeader(const char* binary, const MachineSpec& spec) {
  JsonState().binary = binary;
  std::printf(
      "[repro] %s: trace_version=%u cost_table=%016llx epc=%llu MiB enclave=%s "
      "seed=%llu sim_threads=%u bench_threads=%u\n",
      binary,
      spec.costs.TransitionsEnabled() ? kTraceVersionTransitions : kTraceVersion,
      static_cast<unsigned long long>(CostTableId(spec.costs)),
      static_cast<unsigned long long>(spec.epc_bytes / kMiB),
      spec.enclave_mode ? "on" : "off", static_cast<unsigned long long>(spec.seed),
      spec.threads, ResolveBenchThreads());
}

// One schedulable simulation; `label` feeds progress/--selftime lines.
struct BenchJob {
  std::string label;
  std::function<RunResult()> run;
};

// Runs all jobs (possibly concurrently) and returns results in job order.
inline std::vector<RunResult> RunBenchJobs(const std::vector<BenchJob>& jobs,
                                           const char* tag) {
  using Clock = std::chrono::steady_clock;
  std::vector<RunResult> out(jobs.size());
  const uint32_t threads = ResolveBenchThreads();
  if (jobs.size() > 1) {
    std::fprintf(stderr, "[%s] dispatching %zu runs over %u host thread(s)\n", tag,
                 jobs.size(), threads);
  }
  std::vector<double> host_ms(jobs.size(), 0.0);
  const auto suite_start = Clock::now();
  ParallelFor(jobs.size(), threads, [&](size_t i) {
    std::fprintf(stderr, "[%s] running %s...\n", tag, jobs[i].label.c_str());
    const auto start = Clock::now();
    out[i] = jobs[i].run();
    host_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (SelftimeFlag()) {
      std::fprintf(stderr, "[selftime] %s: %.1f ms\n", jobs[i].label.c_str(), host_ms[i]);
    }
  });
  const double total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - suite_start).count();
  if (SelftimeFlag()) {
    std::fprintf(stderr, "[selftime] %s total: %.1f ms (%u host threads)\n", tag,
                 jobs.size() > 0 ? total_ms : 0.0, threads);
    // Decodes and JIT compiles of the IR execution engines, when any
    // interpreter ran in this batch (process-wide, cumulative).
    const IrExecStatsSnapshot ir = SnapshotIrExecStats();
    if (ir.decode_misses > 0) {
      std::fprintf(stderr, "[selftime] ir-exec: %llu decodes",
                   static_cast<unsigned long long>(ir.decode_misses));
      if (ir.jit_compiles + ir.jit_noexec_fallbacks > 0) {
        std::fprintf(stderr,
                     "; %llu jit compiles (%llu bytes, %.2f ms, "
                     "%llu noexec fallbacks)",
                     static_cast<unsigned long long>(ir.jit_compiles),
                     static_cast<unsigned long long>(ir.jit_compiled_bytes),
                     ir.jit_compile_ns / 1e6,
                     static_cast<unsigned long long>(ir.jit_noexec_fallbacks));
      }
      std::fprintf(stderr, "\n");
    }
  }
  {
    BenchJsonState& s = JsonState();
    std::lock_guard<std::mutex> lock(s.mu);
    for (size_t i = 0; i < jobs.size(); ++i) {
      s.rows.push_back({jobs[i].label, tag, out[i], host_ms[i]});
    }
    s.total_ms += total_ms;
    if (JsonFlag()) {
      WriteBenchJsonLocked();
    }
  }
  return out;
}

// --- the shared --policies= flag ---------------------------------------------------
//
// Every driver that runs a set of schemes accepts --policies=<csv|paper|all>
// and resolves it through the registry (registry.h ParsePolicyList). The
// default is the paper's four schemes so default stdout stays comparable
// with the paper; plugged-in schemes (l4ptr) are opt-in.

inline std::string& PoliciesFlag() {
  static std::string v = "paper";
  return v;
}

inline void AddPoliciesFlag(FlagParser& parser) {
  std::string help = "comma-separated schemes to run (";
  for (const SchemeDescriptor* d : AllSchemes()) {
    help += d->id;
    help += "|";
  }
  help += "paper|all)";
  parser.AddString("policies", &PoliciesFlag(), help);
}

// Resolves the --policies flag; prints the registry's spellings and exits(2)
// on an unknown id.
inline std::vector<PolicyKind> ResolvePolicies() {
  std::string error;
  const std::vector<PolicyKind> kinds = ParsePolicyList(PoliciesFlag(), &error);
  if (kinds.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return kinds;
}

// The paper's default scheme set, from the registry.
inline std::vector<PolicyKind> PaperPolicyKinds() {
  std::vector<PolicyKind> kinds;
  for (const SchemeDescriptor* d : PaperSchemes()) {
    kinds.push_back(d->kind);
  }
  return kinds;
}

// One benchmark's results across the selected schemes (policies[i] produced
// results[i]; the registry says which one is the overhead baseline).
struct SuiteRow {
  std::string name;
  std::vector<PolicyKind> policies;
  std::vector<RunResult> results;

  const RunResult& For(PolicyKind kind) const {
    for (size_t i = 0; i < policies.size(); ++i) {
      if (policies[i] == kind) {
        return results[i];
      }
    }
    std::fprintf(stderr, "SuiteRow %s has no %s result\n", name.c_str(), PolicyName(kind));
    std::abort();
  }
};

inline std::string PerfCell(const RunResult& r, const RunResult& base) {
  if (r.crashed) {
    return std::string("crash(") + TrapKindName(r.trap) + ")";
  }
  return FormatRatio(r.CyclesRatioOver(base));
}

inline std::string MemCell(const RunResult& r, const RunResult& base) {
  if (r.crashed) {
    return "-";
  }
  return FormatRatio(r.VmRatioOver(base));
}

// Index of the overhead baseline (the registry's `baseline` scheme) within
// `policies`; falls back to column 0 when the baseline wasn't selected.
inline size_t BaselineIndex(const std::vector<PolicyKind>& policies) {
  for (size_t i = 0; i < policies.size(); ++i) {
    if (SchemeOf(policies[i]).baseline) {
      return i;
    }
  }
  return 0;
}

// Prints the Fig. 7/11-style table: per-benchmark performance and memory
// ratios over native SGX, with a gmean row (crashes excluded, as the paper's
// gmean necessarily does). Columns come from the rows' scheme list - one per
// selected non-baseline scheme, in registry order, so the default four
// produce exactly the paper's MPX | ASan | SGXBounds layout.
inline void PrintOverheadTables(const std::string& title, const std::vector<SuiteRow>& rows) {
  if (rows.empty()) {
    return;
  }
  const std::vector<PolicyKind>& policies = rows[0].policies;
  const size_t base = BaselineIndex(policies);
  std::vector<size_t> cols;  // indices of the non-baseline columns
  for (size_t i = 0; i < policies.size(); ++i) {
    if (i != base) {
      cols.push_back(i);
    }
  }

  std::printf("\n== %s : performance overhead over native SGX ==\n", title.c_str());
  std::vector<std::string> perf_head{"benchmark"};
  for (const size_t c : cols) {
    perf_head.emplace_back(SchemeOf(policies[c]).name);
  }
  Table perf(perf_head);
  std::vector<std::vector<double>> gm(cols.size());
  for (const auto& row : rows) {
    std::vector<std::string> cells{row.name};
    for (size_t k = 0; k < cols.size(); ++k) {
      const RunResult& r = row.results[cols[k]];
      cells.push_back(PerfCell(r, row.results[base]));
      if (!r.crashed) {
        gm[k].push_back(r.CyclesRatioOver(row.results[base]));
      }
    }
    perf.AddRow(cells);
  }
  perf.AddSeparator();
  {
    std::vector<std::string> cells{"gmean"};
    for (size_t k = 0; k < cols.size(); ++k) {
      cells.push_back(FormatRatio(GeoMean(gm[k])));
    }
    perf.AddRow(cells);
  }
  perf.Print();

  std::printf("\n== %s : peak virtual memory over native SGX ==\n", title.c_str());
  std::vector<std::string> mem_head{"benchmark",
                                    std::string(SchemeOf(policies[base]).id) + " MB"};
  for (const size_t c : cols) {
    mem_head.emplace_back(SchemeOf(policies[c]).name);
  }
  Table mem(mem_head);
  std::vector<std::vector<double>> mm(cols.size());
  for (const auto& row : rows) {
    std::vector<std::string> cells{row.name, FormatBytes(row.results[base].peak_vm_bytes)};
    for (size_t k = 0; k < cols.size(); ++k) {
      const RunResult& r = row.results[cols[k]];
      cells.push_back(MemCell(r, row.results[base]));
      if (!r.crashed) {
        mm[k].push_back(r.VmRatioOver(row.results[base]));
      }
    }
    mem.AddRow(cells);
  }
  mem.AddSeparator();
  {
    std::vector<std::string> cells{"gmean", ""};
    for (size_t k = 0; k < cols.size(); ++k) {
      cells.push_back(FormatRatio(GeoMean(mm[k])));
    }
    mem.AddRow(cells);
  }
  mem.Print();
}

// Assembles one SuiteRow from per-policy results ordered as `policies`.
inline SuiteRow MakeSuiteRow(const std::string& name, const RunResult* results,
                             const std::vector<PolicyKind>& policies) {
  SuiteRow row;
  row.name = name;
  row.policies = policies;
  row.results.assign(results, results + policies.size());
  return row;
}

// Runs every (workload, policy) pair of the suite, fanned out across host
// threads, and returns rows in workload order.
inline std::vector<SuiteRow> RunSuiteRows(const std::vector<const WorkloadInfo*>& workloads,
                                          const MachineSpec& spec, const WorkloadConfig& cfg,
                                          const char* tag,
                                          const std::vector<PolicyKind>& policies) {
  std::vector<BenchJob> jobs;
  jobs.reserve(workloads.size() * policies.size());
  for (const WorkloadInfo* w : workloads) {
    for (PolicyKind kind : policies) {
      // Each scheme runs at its registry defaults (bit-identical to the old
      // PolicyOptions{} for the paper four, which set none), overridden by
      // --opts when the driver registered it.
      const PolicyOptions options = ResolveOptions(SchemeOf(kind).default_options);
      jobs.push_back({w->name + "/" + PolicyName(kind),
                      [w, kind, spec, cfg, options] { return w->run(kind, spec, options, cfg); }});
    }
  }
  const std::vector<RunResult> results = RunBenchJobs(jobs, tag);
  std::vector<SuiteRow> rows;
  rows.reserve(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    rows.push_back(MakeSuiteRow(workloads[i]->name, &results[i * policies.size()], policies));
  }
  return rows;
}

inline std::vector<SuiteRow> RunSuiteRows(const std::vector<const WorkloadInfo*>& workloads,
                                          const MachineSpec& spec, const WorkloadConfig& cfg,
                                          const char* tag) {
  return RunSuiteRows(workloads, spec, cfg, tag, PaperPolicyKinds());
}

// Runs one workload under the paper's four schemes (concurrently when
// --bench_threads allows).
inline SuiteRow RunAllPolicies(const WorkloadInfo& w, const MachineSpec& spec,
                               const WorkloadConfig& cfg) {
  return RunSuiteRows({&w}, spec, cfg, "bench")[0];
}

// Valid spellings for --size flags; pass to FlagParser::AddChoice so unknown
// classes are rejected at parse time instead of silently running the largest.
inline std::vector<std::string> SizeClassChoices() { return {"XS", "S", "M", "L", "XL"}; }

// --policy spellings and parsing now come from the scheme registry
// (registry.h: PolicyChoices(), ParsePolicyKind()) - the same id table that
// backs PolicyName, trace headers and JSON keys.

inline SizeClass ParseSizeClass(const std::string& s) {
  if (s == "XS") {
    return SizeClass::kXS;
  }
  if (s == "S") {
    return SizeClass::kS;
  }
  if (s == "M") {
    return SizeClass::kM;
  }
  if (s == "L") {
    return SizeClass::kL;
  }
  if (s == "XL") {
    return SizeClass::kXL;
  }
  std::fprintf(stderr, "invalid size class '%s' (valid: XS|S|M|L|XL)\n", s.c_str());
  std::exit(2);
}

}  // namespace sgxb

#endif  // SGXBOUNDS_BENCH_BENCH_UTIL_H_
