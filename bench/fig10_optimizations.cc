// Figure 10 reproduction: effect of the SS4.4 optimizations on SGXBounds,
// at two levels:
//
//  (a) policy level - the whole Phoenix/PARSEC suite with safe-access
//      elision and loop hoisting toggled (the paper's Fig. 10 axes);
//  (b) compiler level - IR kernels instrumented by the actual SGXBounds
//      pass with the optimizations toggled, showing the pass-level
//      mechanics (checks inserted / elided / hoisted).
//
// Paper expectation: ~2% average improvement, but up to ~20% on loop-dense
// kernels (kmeans, matrixmul) and with safe-access elision on x264.
//
// --ablation extends (b) into a per-pass ablation across every registered
// scheme: four IR kernels, each built to trip exactly one pipeline pass,
// run under every optimization configuration (src/ir/opt). Rows land in
// --json with the per-pass counters (checks_inserted/elided_*/hoisted/
// pattern_hoisted). Default stdout is unchanged: the ablation only prints
// when requested.

#include "bench/bench_util.h"
#include "src/ir/builder.h"
#include "src/policy/run.h"
#include "src/workloads/run_ir.h"

namespace sgxb {
namespace {

// Explicit per-flag construction: every pipeline pass is named here, so a
// new pass can't silently ride in (or fall out of) the "all" configuration
// through PolicyOptions defaults.
PolicyOptions OptWith(bool safe, bool hoist, bool redundant, bool pattern, bool infield) {
  PolicyOptions o;
  o.opt_safe_elision = safe;
  o.opt_hoist_checks = hoist;
  o.opt_redundant_elision = redundant;
  o.opt_pattern_loops = pattern;
  o.opt_infield_elision = infield;
  return o;
}
PolicyOptions OptNone() { return OptWith(false, false, false, false, false); }
PolicyOptions OptSafe() { return OptWith(true, false, false, false, false); }
PolicyOptions OptHoist() { return OptWith(false, true, false, false, false); }
// "all" means every pipeline pass. The three ShadowBound-style flags are
// inert for the policy-templated suite below (only IR lowerings read them),
// so the Fig. 10 table is unchanged by their presence here.
PolicyOptions OptAll() { return OptWith(true, true, true, true, true); }

// IR kernel for the pass-level ablation: the Fig. 4 array copy at scale.
IrFunction BuildCopyKernel(uint32_t n) {
  IrBuilder b("copy");
  const ValueId size = b.Const(n * 8);
  const ValueId src = b.Malloc(size);
  const ValueId dst = b.Malloc(size);
  auto init = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Store(IrType::kI64, init.iv, b.Gep(src, init.iv, 8));
  b.EndLoop(init);
  auto copy = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  const ValueId v = b.Load(IrType::kI64, b.Gep(src, copy.iv, 8));
  b.Store(IrType::kI64, v, b.Gep(dst, copy.iv, 8));
  b.EndLoop(copy);
  b.Ret();
  return b.Finish();
}

void RunIrAblation() {
  std::printf("\n== pass-level ablation (IR array-copy kernel, n=65536) ==\n");
  Table table({"config", "checks", "elided", "hoisted", "cycles", "vs none"});
  struct Config {
    const char* name;
    PolicyOptions options;
  };
  const Config configs[] = {{"none", OptNone()},
                            {"safe-elision", OptSafe()},
                            {"hoisting", OptHoist()},
                            {"all", OptWith(true, true, false, false, false)}};
  // A small machine: 256 MiB of address space, 64 MiB of it heap.
  MachineSpec spec;
  spec.space_bytes = 256 * kMiB;
  spec.heap_reserve = 64 * kMiB;
  uint64_t baseline = 0;
  for (const Config& config : configs) {
    const RunResult r =
        RunPolicyKind(PolicyKind::kSgxBounds, spec, config.options,
                      [](auto& env) { RunIrFunction(env, BuildCopyKernel(65536)); });
    const CheckPassStats& stats = r.pass_stats;
    if (baseline == 0) {
      baseline = r.cycles;
    }
    table.AddRow({config.name, std::to_string(stats.checks_inserted),
                  std::to_string(stats.checks_elided_safe),
                  std::to_string(stats.checks_hoisted), std::to_string(r.cycles),
                  FormatDouble(static_cast<double>(r.cycles) /
                                   static_cast<double>(baseline) * 100.0,
                               1) +
                      "%"});
  }
  table.Print();
}

// --- the extended per-pass ablation (--ablation) -----------------------------------

// Rewrites the latest counted-loop exit compare from i < n to i != n. The
// trip count is unchanged (monotonic induction from a counted-loop shape),
// but the bound is no longer affine-closed for SCEV hoisting - exactly the
// shape the pattern-based loop pass exists for.
void FlipLastCmpToNe(IrFunction& fn) {
  IrInstr* last = nullptr;
  for (IrBlock& block : fn.blocks) {
    for (IrInstr& instr : block.instrs) {
      if (instr.op == IrOp::kICmp && instr.imm == static_cast<int64_t>(IrCmp::kSLt)) {
        last = &instr;
      }
    }
  }
  if (last != nullptr) {
    last->imm = static_cast<int64_t>(IrCmp::kNe);
  }
}

// Load+increment+store through the same pointer: the second check of every
// pair is dominated by an equal-width check on the same SSA pointer, the
// redundant-check eliminator's bread and butter.
IrFunction BuildRmwKernel(uint32_t n) {
  IrBuilder b("rmw");
  const ValueId t = b.Malloc(b.Const(n * 8));
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  const ValueId slot = b.Gep(t, loop.iv, 8);
  const ValueId x = b.Load(IrType::kI64, slot);
  b.Store(IrType::kI64, b.Add(x, b.Const(1)), slot);
  b.EndLoop(loop);
  b.Ret();
  return b.Finish();
}

// Two loops SCEV hoisting must refuse: a strided sweep whose byte stride
// exceeds max_hoist_stride, and an i != n loop (no affine-closed bound).
// Both are monotonic with constant bounds, so the pattern pass proves the
// exact extent and hoists one range check each.
IrFunction BuildStridedKernel(uint32_t n, uint32_t stride) {
  IrBuilder b("strided");
  const ValueId a = b.Malloc(b.Const(n * 8));
  auto sweep = b.BeginCountedLoop(b.Const(0), b.Const(n), stride);
  b.Store(IrType::kI64, sweep.iv, b.Gep(a, sweep.iv, 8));
  b.EndLoop(sweep);
  auto scan = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  b.Load(IrType::kI64, b.Gep(a, scan.iv, 8));
  b.EndLoop(scan);
  b.Ret();
  IrFunction fn = b.Finish();
  FlipLastCmpToNe(fn);
  return fn;
}

// Constant-offset field accesses on a RUNTIME-sized record (the size is
// loaded from memory, so static object-size analysis cannot prove safety):
// the two sub-granule fields are provably inside any live object's rounded
// footprint, so in-field elision drops their checks where the scheme's
// granule floor allows; the 8-byte field past the granule stays checked.
IrFunction BuildFieldsKernel(uint32_t n) {
  IrBuilder b("fields");
  const ValueId cell = b.Malloc(b.Const(8));
  b.Store(IrType::kI64, b.Const(24), cell);
  const ValueId sz = b.Load(IrType::kI64, cell);
  const ValueId rec = b.Malloc(sz);
  auto loop = b.BeginCountedLoop(b.Const(0), b.Const(n), 1);
  const ValueId lo = b.Load(IrType::kI32, b.Gep(rec, b.Const(0), 1, /*offset=*/0));
  const ValueId hi = b.Load(IrType::kI32, b.Gep(rec, b.Const(0), 1, /*offset=*/4));
  b.Store(IrType::kI64, b.Add(lo, hi), b.Gep(rec, b.Const(0), 1, /*offset=*/8));
  b.EndLoop(loop);
  b.Ret();
  return b.Finish();
}

void RunPassAblation() {
  struct Kernel {
    const char* name;
    IrFunction fn;
  };
  const Kernel kernels[] = {{"copy", BuildCopyKernel(16384)},
                            {"rmw", BuildRmwKernel(16384)},
                            {"strided", BuildStridedKernel(65536, 256)},
                            {"fields", BuildFieldsKernel(16384)}};
  struct Config {
    std::string name;
    PolicyOptions options;
  };
  std::vector<Config> configs;
  if (OptsFlag() == "default") {
    configs = {{"none", OptNone()},
               {"safe", OptSafe()},
               {"hoist", OptHoist()},
               {"redundant", OptWith(false, false, true, false, false)},
               {"pattern", OptWith(false, false, false, true, false)},
               {"infield", OptWith(false, false, false, false, true)},
               {"paper", OptWith(true, true, false, false, false)},
               {"all", OptAll()}};
  } else {
    // --opts narrows the ablation to "none" vs. the requested set
    // (spelling-checked by ResolveOptions; exits(2) on an unknown pass).
    configs = {{"none", OptNone()}, {OptsFlag(), ResolveOptions(OptNone())}};
  }

  // Every registered non-baseline scheme; native has no checks to ablate.
  std::vector<PolicyKind> kinds;
  for (PolicyKind kind : ResolvePolicies()) {
    if (!SchemeOf(kind).baseline) {
      kinds.push_back(kind);
    }
  }

  std::vector<BenchJob> jobs;
  for (const Kernel& kernel : kernels) {
    for (const PolicyKind kind : kinds) {
      for (const Config& config : configs) {
        jobs.push_back({std::string(kernel.name) + "/" + SchemeOf(kind).id + "/" +
                            config.name,
                        // Instruments a copy of the kernel for the scheme and
                        // runs it; pass counters land in RunResult.pass_stats
                        // (and the --json rows).
                        [&kernel, kind, &config] {
                          return RunPolicyKind(
                              kind, MachineSpec{}, config.options,
                              [&kernel](auto& env) { RunIrFunction(env, kernel.fn); });
                        }});
      }
    }
  }
  const std::vector<RunResult> results = RunBenchJobs(jobs, "fig10-ablation");

  std::printf("\n== per-pass ablation (IR kernels x schemes, src/ir/opt pipeline) ==\n");
  Table table({"kernel", "policy", "config", "checks", "safe", "redun", "infield",
               "hoist", "pattern", "cycles", "vs none"});
  size_t i = 0;
  for (const Kernel& kernel : kernels) {
    for (const PolicyKind kind : kinds) {
      uint64_t none_cycles = 0;
      for (const Config& config : configs) {
        const RunResult& r = results[i++];
        const CheckPassStats& p = r.pass_stats;
        if (config.name == "none") {
          none_cycles = r.cycles;
        }
        table.AddRow({kernel.name, SchemeOf(kind).id, config.name,
                      std::to_string(p.checks_inserted),
                      std::to_string(p.checks_elided_safe),
                      std::to_string(p.checks_elided_redundant),
                      std::to_string(p.checks_elided_infield),
                      std::to_string(p.checks_hoisted),
                      std::to_string(p.checks_pattern_hoisted), std::to_string(r.cycles),
                      none_cycles == 0
                          ? "-"
                          : FormatDouble(static_cast<double>(r.cycles) /
                                             static_cast<double>(none_cycles) * 100.0,
                                         1) +
                                "%"});
      }
    }
    table.AddSeparator();
  }
  table.Print();
}

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) {
  using namespace sgxb;
  FlagParser parser;
  int64_t threads = 8;
  std::string size = "S";
  bool ablation = false;
  parser.AddInt("threads", &threads, "worker threads");
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
  parser.AddBool("ablation", &ablation,
                 "also run the per-pass ablation (IR kernels x all registered "
                 "schemes x optimization configs)");
  PoliciesFlag() = "all";  // ablation default: every registered scheme
  AddPoliciesFlag(parser);
  AddOptsFlag(parser);
  AddBenchDriverFlags(parser);
  parser.Parse(argc, argv);
  const uint32_t sim_threads = SimThreadsOrExit("threads", threads);

  PrintReproHeader("fig10_optimizations", MachineSpec{});
  std::printf("Figure 10: SGXBounds optimization ablation\n");
  std::printf("paper expectation: ~2%% average gain; up to ~20-22%% on kmeans/matrixmul "
              "(hoisting) and x264 (safe elision)\n\n");

  Table table({"benchmark", "none", "safe-elision", "hoisting", "all"});
  std::vector<double> g_none;
  std::vector<double> g_safe;
  std::vector<double> g_hoist;
  std::vector<double> g_all;
  std::vector<const WorkloadInfo*> workloads;
  for (const std::string suite : {"phoenix", "parsec"}) {
    for (const WorkloadInfo* w : WorkloadRegistry::Instance().BySuite(suite)) {
      workloads.push_back(w);
    }
  }

  // Five independent runs per workload (native + 4 optimization configs),
  // dispatched across host threads.
  WorkloadConfig cfg;
  cfg.size = ParseSizeClass(size);
  cfg.threads = sim_threads;
  struct Variant {
    const char* name;
    PolicyKind kind;
    PolicyOptions options;
  };
  const Variant variants[] = {{"native", PolicyKind::kNative, PolicyOptions{}},
                              {"none", PolicyKind::kSgxBounds, OptNone()},
                              {"safe", PolicyKind::kSgxBounds, OptSafe()},
                              {"hoist", PolicyKind::kSgxBounds, OptHoist()},
                              {"all", PolicyKind::kSgxBounds, OptAll()}};
  std::vector<BenchJob> jobs;
  for (const WorkloadInfo* w : workloads) {
    for (const Variant& v : variants) {
      jobs.push_back({w->name + "/" + v.name, [w, &v, cfg] {
                        return w->run(v.kind, MachineSpec{}, v.options, cfg);
                      }});
    }
  }
  const std::vector<RunResult> results = RunBenchJobs(jobs, "fig10");

  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const RunResult* r = &results[wi * 5];
    const RunResult &native = r[0], &none = r[1], &safe = r[2], &hoist = r[3], &all = r[4];
    table.AddRow({workloads[wi]->name, PerfCell(none, native), PerfCell(safe, native),
                  PerfCell(hoist, native), PerfCell(all, native)});
    g_none.push_back(none.CyclesRatioOver(native));
    g_safe.push_back(safe.CyclesRatioOver(native));
    g_hoist.push_back(hoist.CyclesRatioOver(native));
    g_all.push_back(all.CyclesRatioOver(native));
  }
  table.AddSeparator();
  table.AddRow({"gmean", FormatRatio(GeoMean(g_none)), FormatRatio(GeoMean(g_safe)),
                FormatRatio(GeoMean(g_hoist)), FormatRatio(GeoMean(g_all))});
  table.Print();

  RunIrAblation();
  if (ablation) {
    RunPassAblation();
  }
  return 0;
}
