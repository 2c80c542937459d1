// Figure 11 reproduction: SPEC CPU2006 inside the enclave - performance and
// memory overheads over native SGX.
//
// Paper expectation (SS6.7): gmean perf SGXBounds ~1.41x, ASan ~1.76x, MPX
// ~1.52x; memory SGXBounds ~1.004x, ASan ~10x, MPX ~2.1x. MPX fails with
// OOM on astar, mcf, and xalanc; ASan's worst case is mcf (2.4x, EPC
// thrashing) where SGXBounds is ~1%.

#include "bench/bench_util.h"

#include "src/trace/record.h"
#include "src/trace/sweep.h"

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  std::string size = "L";
  std::string mode = "live";
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
  parser.AddChoice("mode", &mode, {"live", "sweep"},
                   "live: run the in-enclave suite; sweep: record each "
                   "(benchmark, policy) once and derive BOTH the in-enclave and "
                   "out-of-enclave tables from one SweepEngine batch over that "
                   "recording set (decode-once + capture re-pricing)");
  AddPoliciesFlag(parser);
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);
  const std::vector<PolicyKind> policies = ResolvePolicies();

  MachineSpec spec;  // enclave mode on
  WorkloadConfig cfg;
  cfg.size = ParseSizeClass(size);
  cfg.threads = 1;  // SPEC is single-threaded

  PrintReproHeader("fig11_spec_sgx", spec);
  std::printf("Figure 11: SPEC CPU2006 inside the enclave\n");
  std::printf("paper expectation: gmean SGXBounds ~1.41x / ASan ~1.76x / MPX ~1.52x; "
              "MPX OOM on astar, mcf, xalanc\n");

  const std::vector<const WorkloadInfo*> workloads =
      WorkloadRegistry::Instance().BySuite("spec");

  if (mode == "sweep") {
    // Record once per (benchmark, policy), then answer the whole
    // {enclave on, enclave off} x recordings grid in ONE SweepEngine batch:
    // each trace decodes once and one enclave-ON capture per trace re-prices
    // both modes, so neither table costs a second full replay. The access
    // stream does not depend on enclave mode (it only changes charging), and
    // the engine's results are bit-identical to a live run (tests/trace_test.cc).
    const size_t np = policies.size();
    std::vector<RecordedRun> recs(workloads.size() * np);
    ParallelFor(recs.size(), ResolveBenchThreads(), [&](size_t i) {
      const WorkloadInfo* w = workloads[i / np];
      const PolicyKind kind = policies[i % np];
      std::fprintf(stderr, "[fig11] recording %s/%s...\n", w->name.c_str(),
                   PolicyName(kind));
      recs[i] = RecordWorkloadRun(*w, kind, spec, PolicyOptions{}, cfg);
    });
    std::vector<DecodedTrace> decoded;
    decoded.reserve(recs.size());
    for (const RecordedRun& rec : recs) {
      decoded.emplace_back(rec.trace);
    }
    std::vector<SweepRequest> grid;
    for (const DecodedTrace& d : decoded) {
      SweepRequest on;
      on.trace = &d;
      on.config = SimConfigFromHeader(d.header());
      SweepRequest off = on;
      off.config.enclave_mode = false;
      grid.push_back(on);
      grid.push_back(off);
    }
    SweepOptions opt;
    opt.threads = ResolveBenchThreads();
    SweepEngine engine(opt);
    const std::vector<ReplayResult> swept = engine.Run(grid);
    std::vector<SuiteRow> enclave_rows;
    std::vector<SuiteRow> native_rows;
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
      std::vector<RunResult> enc(np);
      std::vector<RunResult> nat(np);
      for (size_t pi = 0; pi < np; ++pi) {
        const size_t t = wi * np + pi;
        enc[pi] = ToRunResult(swept[2 * t], decoded[t]);
        nat[pi] = ToRunResult(swept[2 * t + 1], decoded[t]);
      }
      enclave_rows.push_back(MakeSuiteRow(workloads[wi]->name, enc.data(), policies));
      native_rows.push_back(MakeSuiteRow(workloads[wi]->name, nat.data(), policies));
    }
    const SweepStats& st = engine.stats();
    std::fprintf(stderr,
                 "[fig11] sweep: %llu requests, %llu captures, %llu re-priced, "
                 "%llu full replays\n",
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.captures_built),
                 static_cast<unsigned long long>(st.capture_replays),
                 static_cast<unsigned long long>(st.full_replays));
    PrintOverheadTables("Fig.11 SPEC in-enclave (" + size + ", recorded)", enclave_rows);
    PrintOverheadTables(
        "Fig.12-style SPEC outside enclave (" + size + ", replayed from the same recordings)",
        native_rows);
    return 0;
  }

  const std::vector<SuiteRow> rows = RunSuiteRows(workloads, spec, cfg, "fig11", policies);
  PrintOverheadTables("Fig.11 SPEC in-enclave (" + size + ")", rows);
  return 0;
}
