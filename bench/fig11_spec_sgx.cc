// Figure 11 reproduction: SPEC CPU2006 inside the enclave - performance and
// memory overheads over native SGX.
//
// Paper expectation (SS6.7): gmean perf SGXBounds ~1.41x, ASan ~1.76x, MPX
// ~1.52x; memory SGXBounds ~1.004x, ASan ~10x, MPX ~2.1x. MPX fails with
// OOM on astar, mcf, and xalanc; ASan's worst case is mcf (2.4x, EPC
// thrashing) where SGXBounds is ~1%.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  std::string size = "L";
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
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

  const std::vector<SuiteRow> rows =
      RunSuiteRows(WorkloadRegistry::Instance().BySuite("spec"), spec, cfg, "fig11", policies);
  PrintOverheadTables("Fig.11 SPEC in-enclave (" + size + ")", rows);
  return 0;
}
