// Figure 7 reproduction: performance (top) and memory (bottom) overheads of
// Intel MPX, AddressSanitizer and SGXBounds over native SGX execution for
// the Phoenix and PARSEC suites, 8 threads.
//
// Paper's headline numbers (SS6.2):
//   performance gmean:  MPX ~1.75x,  ASan ~1.51x,  SGXBounds ~1.17x
//   memory gmean:       MPX ~1.95x,  ASan ~8.1x,   SGXBounds ~1.001x
//   MPX crashes on dedup (bounds tables exhaust enclave memory).

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  int64_t threads = 8;
  std::string size = "L";
  parser.AddInt("threads", &threads, "worker threads (paper: 8)");
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
  AddPoliciesFlag(parser);
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);
  const uint32_t sim_threads = SimThreadsOrExit("threads", threads);
  const std::vector<PolicyKind> policies = ResolvePolicies();

  PrintReproHeader("fig07_overheads", MachineSpec{});
  std::printf("Figure 7: Phoenix + PARSEC overheads over native SGX (%lld threads)\n",
              static_cast<long long>(threads));
  std::printf("paper expectation: perf gmean MPX~1.75x ASan~1.51x SGXBounds~1.17x; "
              "mem gmean MPX~1.95x ASan~8.1x SGXBounds~1.00x; MPX crashes on dedup\n");

  MachineSpec spec;
  WorkloadConfig cfg;
  cfg.threads = sim_threads;
  cfg.size = ParseSizeClass(size);

  std::vector<const WorkloadInfo*> workloads;
  for (const std::string suite : {"phoenix", "parsec"}) {
    for (const WorkloadInfo* w : WorkloadRegistry::Instance().BySuite(suite)) {
      workloads.push_back(w);
    }
  }
  const std::vector<SuiteRow> rows = RunSuiteRows(workloads, spec, cfg, "fig07", policies);
  PrintOverheadTables("Fig.7 Phoenix+PARSEC (" + size + ", " + std::to_string(threads) +
                          " threads)",
                      rows);
  return 0;
}
