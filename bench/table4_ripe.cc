// Table 4 reproduction: RIPE security benchmark results inside the enclave.
//
// Paper expectation:
//   MPX        2/16 prevented (only direct stack smashes; libc loses bounds)
//   ASan       8/16 prevented (all but the in-struct overflows)
//   SGXBounds  8/16 prevented (same 8; object-granularity bounds)
//
// Columns come from the scheme registry, so plugged-in schemes (l4ptr)
// appear with their own declared expectation without edits here.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/ripe/ripe.h"

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  PoliciesFlag() = "all";  // Table 4 default: every registered scheme
  AddPoliciesFlag(parser);
  parser.Parse(argc, argv);
  std::vector<const SchemeDescriptor*> schemes;
  for (const PolicyKind kind : ResolvePolicies()) {
    schemes.push_back(&SchemeOf(kind));
  }

  PrintReproHeader("table4_ripe", MachineSpec{});
  std::printf("Table 4: RIPE attack matrix (16 attacks surviving under SGX)\n");
  std::printf("paper expectation: MPX 2/16, ASan 8/16, SGXBounds 8/16\n\n");

  std::vector<std::string> head{"attack"};
  for (const SchemeDescriptor* d : schemes) {
    head.emplace_back(d->name);
  }
  Table matrix(head);
  for (const auto& scenario : RipeScenarios()) {
    std::vector<std::string> cells{scenario.name};
    for (const SchemeDescriptor* d : schemes) {
      const AttackOutcome outcome = RunAttack(scenario, d->kind);
      cells.push_back(outcome.prevented ? "prevented"
                                        : (outcome.succeeded ? "HIJACKED" : "no effect"));
    }
    matrix.AddRow(std::move(cells));
  }
  matrix.Print();

  Table summary({"defense", "prevented", "expected"});
  for (const SchemeDescriptor* d : schemes) {
    const RipeSummary plain = RunRipeSuite(d->kind);
    summary.AddRow({d->name, std::to_string(plain.prevented) + "/16",
                    std::to_string(d->ripe_expected_prevented) + "/16" +
                        (d->in_paper_suite ? " (paper)" : " (declared)")});
    // The SS8 future-work extension: schemes whose defense can narrow bounds
    // onto struct fields catch the intra-object overflows as well. Only
    // printed when narrowing actually changes the outcome.
    const RipeSummary narrowed = RunRipeSuite(d->kind, nullptr, true);
    if (narrowed.prevented != plain.prevented) {
      summary.AddRow({std::string(d->name) + "+narrowing (SS8 ext.)",
                      std::to_string(narrowed.prevented) + "/16", "n/a (future work)"});
    }
  }
  std::printf("\n");
  summary.Print();
  std::printf("\nA '+narrowing' row is this repo's implementation of the paper's SS8\n"
              "future-work item: bounds narrowing on struct-field pointers catches the\n"
              "intra-object overflows that object-granularity bounds miss.\n");
  return 0;
}
