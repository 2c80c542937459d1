// Figure 8 + Table 3 reproduction: performance with increasing working-set
// sizes XS..XL, normalized to SGXBOUNDS (as the paper plots it), plus the
// Table 3 counter breakdown (LLC misses, page faults, MPX bounds tables).
//
// Paper expectation (SS6.3):
//   * kmeans: overheads hump at M (MPX's bounds tables spill the EPC while
//     SGXBounds still fits -> MPX up to ~8.3x), then converge at L/XL when
//     everyone thrashes;
//   * matrixmul: MPX ~on par with SGXBounds at every size (3 arrays, bounds
//     live in registers, 1 bounds table); ASan spikes hugely at XL when its
//     shadow breaks what cache locality is left.

#include "bench/bench_util.h"

namespace {

// EPC sweep (the working-set pressure axis): cycles and fault counts per EPC
// size, one table per workload. Every (workload, EPC) point is one live run,
// fanned out across --bench_threads.
void RunEpcSweep(const std::vector<const sgxb::WorkloadInfo*>& workloads,
                 const std::vector<uint64_t>& epc_mibs, sgxb::SizeClass size,
                 sgxb::PolicyKind kind, uint32_t threads) {
  using namespace sgxb;
  std::printf("\nEPC sweep: %s, size %s, %zu point(s)\n", PolicyName(kind),
              SizeClassName(size), epc_mibs.size());
  WorkloadConfig cfg;
  cfg.size = size;
  cfg.threads = threads;
  std::vector<BenchJob> jobs;
  for (const WorkloadInfo* w : workloads) {
    for (uint64_t mib : epc_mibs) {
      MachineSpec spec;
      spec.epc_bytes = mib * kMiB;
      jobs.push_back({w->name + "/epc" + std::to_string(mib),
                      [w, kind, spec, cfg] { return w->run(kind, spec, PolicyOptions{}, cfg); }});
    }
  }
  const std::vector<RunResult> flat = RunBenchJobs(jobs, "fig08-epc");
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const WorkloadInfo* w = workloads[wi];
    const RunResult* points = &flat[wi * epc_mibs.size()];
    std::printf("\n== %s (%s) ==\n", w->name.c_str(), PolicyName(kind));
    Table table({"EPC MiB", "cycles", "EPC faults", "LLC misses", "vs largest"});
    const RunResult& base = points[epc_mibs.size() - 1];
    for (size_t i = 0; i < epc_mibs.size(); ++i) {
      const RunResult& r = points[i];
      table.AddRow({std::to_string(epc_mibs[i]), std::to_string(r.cycles),
                    std::to_string(r.counters.epc_faults),
                    std::to_string(r.counters.llc_misses),
                    r.crashed ? std::string("crash") : FormatRatio(r.CyclesRatioOver(base))});
    }
    table.Print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  int64_t threads = 8;
  std::string epc_mibs_csv;
  std::string sweep_size = "S";
  std::string sweep_policy = "sgxbounds";
  parser.AddInt("threads", &threads, "worker threads");
  parser.AddString("epc_mibs", &epc_mibs_csv,
                   "comma-separated EPC sizes in MiB; when set, runs the EPC sweep "
                   "instead of the working-set grid");
  parser.AddChoice("sweep_size", &sweep_size, SizeClassChoices(), "EPC sweep input size class");
  parser.AddChoice("sweep_policy", &sweep_policy, PolicyChoices(), "EPC sweep policy");
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);
  const uint32_t sim_threads = SimThreadsOrExit("threads", threads);

  PrintReproHeader("fig08_working_set", MachineSpec{});

  std::vector<const WorkloadInfo*> workloads;
  for (const char* name : {"kmeans", "matrixmul", "wordcount", "linear_regression"}) {
    const WorkloadInfo* w = WorkloadRegistry::Instance().Find(name);
    if (w != nullptr) {
      workloads.push_back(w);
    }
  }

  if (!epc_mibs_csv.empty()) {
    const PolicyKind kind = ParsePolicyKind(sweep_policy);
    // 1..4096 MiB: the EPC sizes SimConfig validation accepts.
    RunEpcSweep(workloads, ParseU64List(epc_mibs_csv, "epc_mibs", 1, 4096),
                ParseSizeClass(sweep_size), kind, sim_threads);
    return 0;
  }

  std::printf("Figure 8 + Table 3: increasing working sets (normalized to SGXBounds)\n");
  std::printf("paper expectation: kmeans MPX hump at M (~8x); matrixmul MPX ~1x always, "
              "ASan spike at XL; SGXBounds deviation across sizes ~2%%\n");

  const SizeClass sizes[] = {SizeClass::kXS, SizeClass::kS, SizeClass::kM, SizeClass::kL,
                             SizeClass::kXL};

  // Fan every (workload, size, policy) run out across host threads, then
  // print the per-workload tables from the collected results in order.
  constexpr size_t kNumSizes = sizeof(sizes) / sizeof(sizes[0]);
  // This figure's analysis is intrinsically about the paper's four schemes
  // (everything is normalized to SGXBounds, Table 3 counts MPX tables).
  const std::vector<PolicyKind> grid = PaperPolicyKinds();
  std::vector<BenchJob> jobs;
  for (const WorkloadInfo* w : workloads) {
    for (SizeClass size : sizes) {
      WorkloadConfig cfg;
      cfg.size = size;
      cfg.threads = sim_threads;
      for (PolicyKind kind : grid) {
        jobs.push_back({w->name + "/" + SizeClassName(size) + "/" + PolicyName(kind),
                        [w, cfg, kind] {
                          return w->run(kind, MachineSpec{}, PolicyOptions{}, cfg);
                        }});
      }
    }
  }
  const std::vector<RunResult> results = RunBenchJobs(jobs, "fig08");

  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const WorkloadInfo* w = workloads[wi];
    std::printf("\n== %s ==\n", w->name.c_str());
    Table perf({"size", "ws(native)", "SGX/SGXBnd", "MPX/SGXBnd", "ASan/SGXBnd"});
    Table counters({"size", "ASan LLC-miss%", "MPX LLC-miss%", "ASan faults(x)",
                    "MPX faults(x)", "MPX #BTs"});
    for (size_t si = 0; si < kNumSizes; ++si) {
      const SizeClass size = sizes[si];
      const SuiteRow row =
          MakeSuiteRow(w->name, &results[(wi * kNumSizes + si) * grid.size()], grid);
      const RunResult& native = row.For(PolicyKind::kNative);
      const RunResult& mpx = row.For(PolicyKind::kMpx);
      const RunResult& asan = row.For(PolicyKind::kAsan);
      const RunResult& base = row.For(PolicyKind::kSgxBounds);
      auto ratio_cell = [&](const RunResult& r) {
        return r.crashed ? std::string("crash") : FormatRatio(r.CyclesRatioOver(base));
      };
      perf.AddRow({SizeClassName(size), FormatBytes(native.peak_vm_bytes),
                   ratio_cell(native), ratio_cell(mpx), ratio_cell(asan)});

      auto miss_pct = [](const RunResult& r, const RunResult& b) {
        if (r.crashed || b.counters.llc_misses == 0) {
          return std::string("-");
        }
        const double delta = (static_cast<double>(r.counters.llc_misses) -
                              static_cast<double>(b.counters.llc_misses)) /
                             static_cast<double>(b.counters.llc_misses) * 100.0;
        return FormatDouble(delta, 1);
      };
      auto fault_ratio = [](const RunResult& r, const RunResult& b) {
        if (r.crashed || b.counters.page_faults() == 0) {
          return std::string("-");
        }
        return FormatDouble(static_cast<double>(r.counters.page_faults()) /
                                static_cast<double>(b.counters.page_faults()),
                            1);
      };
      counters.AddRow({SizeClassName(size), miss_pct(asan, base), miss_pct(mpx, base),
                       fault_ratio(asan, base), fault_ratio(mpx, base),
                       mpx.crashed ? std::string("-") : std::to_string(mpx.mpx_bt_count)});
    }
    perf.Print();
    std::printf("-- Table 3 style counters (vs SGXBounds) --\n");
    counters.Print();
  }
  return 0;
}
