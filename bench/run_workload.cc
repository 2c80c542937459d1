// General-purpose experiment driver: run any registered workload under any
// scheme/size/thread-count/EPC configuration and print the full counter
// breakdown. The "swiss-army knife" the figure binaries are specializations
// of; handy for exploring the simulator interactively:
//
//   ./build/bench/run_workload --list
//   ./build/bench/run_workload --workload=kmeans --policy=mpx --size=M --threads=8 --epc_mb=94
//   ./build/bench/run_workload --workload=mcf --policy=sgxbounds --no_enclave

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  std::string workload = "kmeans";
  std::string policy = "sgxbounds";
  std::string size = "S";
  int64_t threads = 1;
  uint64_t epc_mb = 94;
  bool no_enclave = false;
  bool list = false;
  bool no_opts = false;
  // Strict choice: an unknown name dies at parse time listing every
  // registered spelling, instead of running the default workload.
  std::vector<std::string> workload_choices;
  for (const WorkloadInfo* w : WorkloadRegistry::Instance().All()) {
    workload_choices.push_back(w->name);
  }
  parser.AddChoice("workload", &workload, workload_choices, "workload name (see --list)");
  parser.AddChoice("policy", &policy, PolicyChoices(), "memory-safety scheme");
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
  parser.AddInt("threads", &threads, "worker threads");
  parser.AddUint("epc_mb", &epc_mb, "usable EPC size in MiB");
  parser.AddBool("no_enclave", &no_enclave, "run outside the enclave (no EPC/MEE)");
  parser.AddBool("no_opts", &no_opts, "disable every check optimization (same as --opts=none)");
  parser.AddBool("list", &list, "list registered workloads and exit");
  AddOptsFlag(parser);
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);
  const uint32_t sim_threads = SimThreadsOrExit("threads", threads);

  auto& registry = WorkloadRegistry::Instance();
  if (list) {
    Table t({"workload", "suite", "multithreaded"});
    for (const WorkloadInfo* w : registry.All()) {
      t.AddRow({w->name, w->suite, w->multithreaded ? "yes" : "no"});
    }
    t.Print();
    return 0;
  }

  const WorkloadInfo* w = registry.Find(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n", workload.c_str());
    return 2;
  }
  const PolicyKind kind = ParsePolicyKind(policy);

  MachineSpec spec;
  spec.enclave_mode = !no_enclave;
  spec.epc_bytes = epc_mb * kMiB;
  spec.threads = sim_threads;
  PrintReproHeader("run_workload", spec);
  WorkloadConfig cfg;
  cfg.size = ParseSizeClass(size);
  cfg.threads = sim_threads;
  // Start from the scheme's registry defaults (paper four: the SS4.4 pair;
  // shadow: all five pipeline passes), then apply --opts / --no_opts.
  PolicyOptions options = ResolveOptions(SchemeOf(kind).default_options);
  if (no_opts) {
    options.opt_safe_elision = false;
    options.opt_hoist_checks = false;
    options.opt_redundant_elision = false;
    options.opt_pattern_loops = false;
    options.opt_infield_elision = false;
  }

  // Through the shared job runner so --selftime / --json see this run too.
  const RunResult r = RunBenchJobs(
      {{w->name + "/" + PolicyName(kind), [&] { return w->run(kind, spec, options, cfg); }}},
      "run_workload")[0];

  std::printf("%s / %s / size %s / %lld thread(s) / %s, EPC %llu MiB\n", w->name.c_str(),
              PolicyName(kind), size.c_str(), static_cast<long long>(threads),
              no_enclave ? "outside enclave" : "inside enclave",
              static_cast<unsigned long long>(epc_mb));
  if (r.crashed) {
    std::printf("CRASHED: %s\n", r.trap_message.c_str());
    return 1;
  }
  const PerfCounters& c = r.counters;
  Table t({"metric", "value"});
  auto row = [&](const char* name, uint64_t v) { t.AddRow({name, std::to_string(v)}); };
  row("cycles", r.cycles);
  row("instructions", c.instructions());
  row("app loads", c.loads);
  row("app stores", c.stores);
  row("metadata loads", c.metadata_loads);
  row("metadata stores", c.metadata_stores);
  row("bounds checks", c.bounds_checks);
  row("L1 accesses", c.l1_accesses);
  row("L1 misses", c.l1_misses);
  row("LLC accesses", c.llc_accesses);
  row("LLC misses", c.llc_misses);
  row("EPC faults", c.epc_faults);
  row("minor faults", c.minor_faults);
  t.AddRow({"peak virtual memory", FormatBytes(r.peak_vm_bytes)});
  // Check-pipeline statistics, for bodies that ran IR instrumentation (the
  // "ir" suite; zero and omitted elsewhere).
  if (r.pass_stats.Any()) {
    const CheckPassStats& p = r.pass_stats;
    row("checks inserted", p.checks_inserted);
    row("checks elided (safe)", p.checks_elided_safe);
    row("checks elided (redundant)", p.checks_elided_redundant);
    row("checks elided (in-field)", p.checks_elided_infield);
    row("checks hoisted (SCEV)", p.checks_hoisted);
    row("checks hoisted (pattern)", p.checks_pattern_hoisted);
  }
  // Scheme-specific extra metric (e.g. MPX's bounds-table count), declared
  // by the scheme's registry entry.
  const SchemeDescriptor& scheme = SchemeOf(kind);
  if (scheme.extra_metric != nullptr) {
    row(scheme.extra_metric_label, scheme.extra_metric(r));
  }
  t.Print();
  return 0;
}
