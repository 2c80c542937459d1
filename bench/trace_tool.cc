// trace_tool: command-line front end of the record/replay subsystem.
//
//   trace_tool record --workload=kmeans --policy=sgxbounds --out=k.sgxtrace
//       execute once, save the event stream, and cross-check that a
//       same-configuration replay reproduces the live counters exactly
//   trace_tool replay k.sgxtrace [--epc_mib=32] [--enclave=0]
//       re-simulate the recorded execution under a (possibly different)
//       machine configuration, without re-executing the workload
//   trace_tool info k.sgxtrace [--events=20]
//       print header/summary and optionally the first decoded events
//   trace_tool diff a.sgxtrace b.sgxtrace
//       event-level comparison; prints the first diverging events
//
// A trace file that does not load (unreadable, corrupt, or a header
// machine the cache and EPC models cannot build), or a complete trace whose
// event stream stops at a corrupt event, exits with status 2, as a bad flag
// does, after a message naming the cause.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/trace/record.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_replay.h"

namespace sgxb {
namespace {

void PrintHeader(const TraceHeader& h) {
  std::printf("workload:      %s%s%s\n", h.workload.c_str(), h.note.empty() ? "" : "  # ",
              h.note.c_str());
  std::printf("policy:        %s\n", PolicyName(static_cast<PolicyKind>(h.policy)));
  std::printf("machine:       enclave=%s epc=%" PRIu64 " MiB l1=%" PRIu64 "K/%uw l2=%" PRIu64
              "K/%uw l3=%" PRIu64 "M/%uw\n",
              h.sim.enclave_mode ? "on" : "off", h.sim.epc_bytes / kMiB,
              h.sim.l1_bytes / kKiB, h.sim.l1_ways, h.sim.l2_bytes / kKiB, h.sim.l2_ways,
              h.sim.l3_bytes / kMiB, h.sim.l3_ways);
  std::printf("run:           threads=%u seed=%" PRIu64 " space=%" PRIu64 " MiB heap=%" PRIu64
              " MiB\n",
              h.threads, h.seed, h.space_bytes / kMiB, h.heap_reserve / kMiB);
  std::printf("cost_table:    %016" PRIx64 " (version %u)\n", h.cost_table_id, h.version);
}

// The exit of a complete trace whose stream stopped after `decoded` events
// at a corrupt one, short of its kEnd.
int CorruptStream(const std::string& path, uint64_t decoded, const TraceSummary& s) {
  std::fprintf(stderr, "%s\n", CorruptStreamMessage(path, decoded, s).c_str());
  return 2;
}

void PrintSummary(const TraceSummary& s, size_t byte_size) {
  std::printf("events:        %" PRIu64 "%s (%zu bytes%s)\n", s.event_count,
              s.truncated ? " [truncated prefix retained]" : "", byte_size,
              s.event_count == 0 ? "" : "");
  std::printf("stream_hash:   %016" PRIx64 "\n", s.stream_hash);
  std::printf("cpus:          %u\n", s.cpu_count);
  std::printf("live_cycles:   %" PRIu64 "\n", s.live_cycles);
  std::printf("peak_vm:       %" PRIu64 " bytes\n", s.peak_vm_bytes);
  if (s.crashed) {
    std::printf("outcome:       crash(%s): %s\n",
                TrapKindName(static_cast<TrapKind>(s.trap_kind)), s.trap_message.c_str());
  } else {
    std::printf("outcome:       completed\n");
  }
}

int Record(FlagParser& parser, int argc, char** argv) {
  std::string workload = "kmeans";
  std::string policy = "sgxbounds";
  std::string size = "M";
  std::string out;
  std::string note;
  std::string faults;
  int64_t threads = 1;
  uint64_t seed = 42;
  uint64_t epc_mib = 94;
  bool enclave = true;
  uint64_t event_limit = 0;
  parser.AddString("workload", &workload, "workload name (see run_workload --list)");
  // Registry ids plus their aliases (e.g. "sgx" for native).
  std::vector<std::string> policy_choices;
  for (const SchemeDescriptor* d : AllSchemes()) {
    policy_choices.push_back(d->id);
    for (const char* alias : d->aliases) {
      policy_choices.push_back(alias);
    }
  }
  parser.AddChoice("policy", &policy, policy_choices, "memory-safety scheme (sgx = native)");
  parser.AddChoice("size", &size, SizeClassChoices(), "input size class");
  parser.AddString("out", &out, "output .sgxtrace path (default <workload>.sgxtrace)");
  parser.AddString("note", &note, "free-form note stored in the trace header");
  parser.AddString("faults", &faults,
                   "deterministic fault plan spec (see src/fault/fault.h), armed on the "
                   "recorded run; the injected accesses land in the trace like any others");
  parser.AddInt("threads", &threads, "simulated worker threads");
  parser.AddUint("seed", &seed, "workload rng seed");
  parser.AddUint("epc_mib", &epc_mib, "usable EPC size in MiB");
  parser.AddBool("enclave", &enclave, "simulate inside the enclave");
  parser.AddUint("event_limit", &event_limit,
                 "retain only the first N events (golden prefix traces); 0 = all");
  parser.Parse(argc, argv);
  const uint32_t sim_threads = SimThreadsOrExit("threads", threads);

  const SchemeDescriptor* scheme = FindScheme(policy);
  if (scheme == nullptr) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy.c_str());
    return 1;
  }
  const PolicyKind kind = scheme->kind;
  const WorkloadInfo* info = WorkloadRegistry::Instance().Find(workload);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 1;
  }
  if (out.empty()) {
    out = workload + ".sgxtrace";
  }

  FaultPlan plan;
  if (!faults.empty()) {
    std::string error;
    if (!FaultPlan::Parse(faults, &plan, &error)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", error.c_str());
      return 1;
    }
  }

  MachineSpec spec;
  spec.enclave_mode = enclave;
  spec.epc_bytes = epc_mib * kMiB;
  spec.seed = seed;
  spec.threads = sim_threads;
  if (!plan.empty()) {
    spec.faults = &plan;
  }
  PrintReproHeader("trace_tool", spec);
  WorkloadConfig cfg;
  cfg.size = ParseSizeClass(size);
  cfg.threads = sim_threads;
  cfg.seed = seed;

  TraceRecorder recorder(info->name + "/" + SizeClassName(cfg.size), note);
  if (event_limit > 0) {
    recorder.set_event_limit(event_limit);
  }
  MachineSpec traced = spec;
  traced.trace = &recorder;
  std::fprintf(stderr, "[record] running %s/%s under %s...\n", workload.c_str(),
               size.c_str(), PolicyName(kind));
  const RunResult live = info->run(kind, traced, PolicyOptions{}, cfg);
  Trace trace = recorder.TakeTrace();

  std::string error;
  if (!SaveTrace(trace, out, &error)) {
    std::fprintf(stderr, "save failed: %s\n", error.c_str());
    return 1;
  }
  PrintHeader(trace.header);
  PrintSummary(trace.summary, trace.events.size());
  std::printf("saved:         %s\n", out.c_str());

  if (!trace.summary.truncated) {
    const ReplayResult check = ReplayTrace(trace);
    const bool ok = check.cycles == live.cycles && check.counters.cycles == live.counters.cycles &&
                    check.counters.llc_misses == live.counters.llc_misses &&
                    check.counters.epc_faults == live.counters.epc_faults;
    std::printf("replay check:  %s (replay %" PRIu64 " cycles vs live %" PRIu64 ")\n",
                ok ? "bit-identical" : "MISMATCH", check.cycles, live.cycles);
    return ok ? 0 : 1;
  }
  return 0;
}

int Replay(const std::string& path, FlagParser& parser, int argc, char** argv) {
  uint64_t epc_mib = 0;
  int64_t enclave = -1;
  parser.AddUint("epc_mib", &epc_mib, "override EPC size in MiB (0 = as recorded)");
  parser.AddInt("enclave", &enclave, "override enclave mode 0/1 (-1 = as recorded)");
  parser.Parse(argc, argv);

  Trace trace;
  std::string error;
  if (!LoadTrace(path, &trace, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (trace.summary.truncated) {
    std::fprintf(stderr,
                 "%s is a truncated prefix trace; totals would be meaningless\n",
                 path.c_str());
    return 1;
  }
  const DecodedTrace decoded(trace);
  if (!decoded.whole()) {
    return CorruptStream(path, decoded.event_count(), trace.summary);
  }
  SimConfig config = SimConfigFromHeader(trace.header);
  if (epc_mib > 0) {
    config.epc_bytes = epc_mib * kMiB;
  }
  if (enclave >= 0) {
    config.enclave_mode = enclave != 0;
  }
  if (!ValidateSimConfig(config, &error)) {
    std::fprintf(stderr, "--epc_mib: %s\n", error.c_str());
    return 2;
  }
  const ReplayResult r = ReplayDecoded(decoded, config);
  PrintHeader(trace.header);
  std::printf("replay config: enclave=%s epc=%" PRIu64 " MiB\n",
              config.enclave_mode ? "on" : "off", config.epc_bytes / kMiB);
  std::printf("cycles:        %" PRIu64 " (live run: %" PRIu64 ")\n", r.cycles,
              trace.summary.live_cycles);
  std::printf("llc_misses:    %" PRIu64 "\n", r.counters.llc_misses);
  std::printf("epc_faults:    %" PRIu64 "\n", r.counters.epc_faults);
  std::printf("minor_faults:  %" PRIu64 "\n", r.counters.minor_faults);
  std::printf("events:        %" PRIu64 " replayed over %u cpus\n", r.events_replayed,
              r.cpu_count);
  return 0;
}

int Info(const std::string& path, FlagParser& parser, int argc, char** argv) {
  uint64_t events = 0;
  parser.AddUint("events", &events, "also print the first N decoded events");
  parser.Parse(argc, argv);

  Trace trace;
  std::string error;
  if (!LoadTrace(path, &trace, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  // Per-kind histogram of the encoded stream: counts, encoded bytes (via
  // TraceReader::byte_offset deltas), and how many individual memory
  // accesses each kind expands to — the run/loop encodings are where the
  // compression comes from, and this table shows exactly how much each buys.
  // The same pass renders the first `events` events.
  constexpr size_t kKinds = 8;
  uint64_t counts[kKinds] = {};
  uint64_t bytes[kKinds] = {};
  uint64_t expanded[kKinds] = {};
  std::vector<std::string> listing;
  TraceReader reader(trace);
  DecodedEvent ev;
  EventPayload payload;
  size_t prev = 0;
  for (payload.clear(); reader.Next(&ev, &payload); payload.clear()) {
    const size_t k = static_cast<size_t>(ev.kind) & (kKinds - 1);
    ++counts[k];
    bytes[k] += reader.byte_offset() - prev;
    prev = reader.byte_offset();
    switch (ev.kind) {
      case TraceEventKind::kAccess:
        expanded[k] += 1;
        break;
      case TraceEventKind::kAccessRun:
        expanded[k] += ev.count;
        break;
      case TraceEventKind::kControl:
        if (static_cast<ControlSub>(ev.sub) == ControlSub::kLoopRun) {
          expanded[k] += ev.count * ev.period;
        }
        break;
      default:
        break;
    }
    if (listing.size() < events) {
      listing.push_back(FormatTraceEvent(ev, payload));
    }
  }
  if (!reader.ReadWhole(trace.summary)) {
    return CorruptStream(path, reader.position(), trace.summary);
  }

  std::printf("file:          %s\n", path.c_str());
  PrintHeader(trace.header);
  PrintSummary(trace.summary, trace.events.size());
  std::printf("-- event mix --\n");
  Table mix({"kind", "events", "bytes", "b/event", "accesses"});
  uint64_t total_events = 0, total_bytes = 0, total_accesses = 0;
  for (size_t k = 0; k < kKinds; ++k) {
    if (counts[k] == 0) {
      continue;
    }
    total_events += counts[k];
    total_bytes += bytes[k];
    total_accesses += expanded[k];
    mix.AddRow({TraceEventKindName(static_cast<TraceEventKind>(k)), std::to_string(counts[k]),
                std::to_string(bytes[k]),
                FormatDouble(static_cast<double>(bytes[k]) / counts[k], 1),
                std::to_string(expanded[k])});
  }
  mix.AddSeparator();
  mix.AddRow({"total", std::to_string(total_events), std::to_string(total_bytes),
              total_events == 0
                  ? "-"
                  : FormatDouble(static_cast<double>(total_bytes) / total_events, 1),
              std::to_string(total_accesses)});
  mix.Print();
  if (total_accesses > 0 && total_bytes > 0) {
    // Baseline for the ratio: the most compact conceivable per-access
    // encoding (one minimal 2-byte kAccess event per access, no runs).
    std::printf("compression:   %" PRIu64 " accesses in %" PRIu64
                " encoded bytes — %sx vs one 2-byte event per access\n",
                total_accesses, total_bytes,
                FormatDouble(static_cast<double>(total_accesses) * 2 /
                                 static_cast<double>(total_bytes),
                             1)
                    .c_str());
  }
  for (size_t i = 0; i < listing.size(); ++i) {
    std::printf("  %6zu  %s\n", i, listing[i].c_str());
  }
  return 0;
}

int Diff(const std::string& path_a, const std::string& path_b, FlagParser& parser, int argc,
         char** argv) {
  uint64_t limit = 10;
  parser.AddUint("limit", &limit, "max diverging events to print");
  parser.Parse(argc, argv);

  Trace a, b;
  std::string error;
  if (!LoadTrace(path_a, &a, &error) || !LoadTrace(path_b, &b, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (a.summary.stream_hash == b.summary.stream_hash &&
      a.summary.event_count == b.summary.event_count) {
    std::printf("identical: %" PRIu64 " events, stream_hash %016" PRIx64 "\n",
                a.summary.event_count, a.summary.stream_hash);
    return 0;
  }

  const DecodedTrace da(a), db(b);
  if (!da.whole()) {
    return CorruptStream(path_a, da.event_count(), a.summary);
  }
  if (!db.whole()) {
    return CorruptStream(path_b, db.event_count(), b.summary);
  }
  uint64_t shown = 0;
  for (uint64_t i = 0; shown < limit; ++i) {
    const bool ha = i < da.event_count();
    const bool hb = i < db.event_count();
    if (!ha && !hb) {
      break;
    }
    if (!ha || !hb) {
      const DecodedTrace& longer = ha ? da : db;
      std::printf("#%" PRIu64 ": %s ends, %s continues with: %s\n", i,
                  ha ? path_b.c_str() : path_a.c_str(), ha ? path_a.c_str() : path_b.c_str(),
                  FormatTraceEvent(longer.events()[i], longer.payload()).c_str());
      ++shown;
      continue;
    }
    if (!SameTraceEvent(da.events()[i], da.payload(), db.events()[i], db.payload())) {
      std::printf("#%" PRIu64 ":\n  a: %s\n  b: %s\n", i,
                  FormatTraceEvent(da.events()[i], da.payload()).c_str(),
                  FormatTraceEvent(db.events()[i], db.payload()).c_str());
      ++shown;
    }
  }
  std::printf("traces differ (a: %" PRIu64 " events hash %016" PRIx64 ", b: %" PRIu64
              " events hash %016" PRIx64 ")\n",
              a.summary.event_count, a.summary.stream_hash, b.summary.event_count,
              b.summary.stream_hash);
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_tool <record|replay|info|diff> [args] [--help]\n"
                 "  record --workload=W --policy=P [--size --threads --seed --epc_mib "
                 "--enclave --event_limit --note] --out=T.sgxtrace\n"
                 "  replay T.sgxtrace [--epc_mib=N] [--enclave=0|1]\n"
                 "  info   T.sgxtrace [--events=N]\n"
                 "  diff   A.sgxtrace B.sgxtrace [--limit=N]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  // Re-point the parser past the subcommand.
  argv[1] = argv[0];
  FlagParser parser;
  if (cmd == "record") {
    return Record(parser, argc - 1, argv + 1);
  }
  if (cmd == "replay" || cmd == "info") {
    // The path is the first positional; pre-scan so flags can follow it.
    std::string path;
    for (int i = 2; i < argc; ++i) {
      if (argv[i][0] != '-') {
        path = argv[i];
        // Swallow the positional by shifting the tail left.
        for (int j = i; j + 1 < argc; ++j) {
          argv[j] = argv[j + 1];
        }
        --argc;
        break;
      }
    }
    if (path.empty()) {
      std::fprintf(stderr, "%s: missing .sgxtrace path\n", cmd.c_str());
      return 1;
    }
    return cmd == "replay" ? Replay(path, parser, argc - 1, argv + 1)
                           : Info(path, parser, argc - 1, argv + 1);
  }
  if (cmd == "diff") {
    std::vector<std::string> paths;
    for (int i = 2; i < argc && paths.size() < 2;) {
      if (argv[i][0] != '-') {
        paths.push_back(argv[i]);
        for (int j = i; j + 1 < argc; ++j) {
          argv[j] = argv[j + 1];
        }
        --argc;
      } else {
        ++i;
      }
    }
    if (paths.size() != 2) {
      std::fprintf(stderr, "diff: need exactly two .sgxtrace paths\n");
      return 1;
    }
    return Diff(paths[0], paths[1], parser, argc - 1, argv + 1);
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 1;
}

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) { return sgxb::Main(argc, argv); }
