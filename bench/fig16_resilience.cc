// fig16_resilience: availability under shard failures, per recovery policy.
//
// Sweeps fault rate x recovery policy over one farm configuration
// (src/farm/resilience.h): seeded ShardFaultPlan::Sampled campaigns of
// crash/hang/epc_storm/poison events against an open-loop offered load, under
// failstop / restart / failover / failover+hedge. Per sweep point it reports
// the availability/SLO picture the paper's per-enclave story scales up to:
// goodput vs offered load (and vs the fault-free baseline), request outcome
// counts (completed / app-failed / timed out), client mechanics (retries,
// hedges, hedge wins), supervisor mechanics (detections, convictions,
// restarts, failovers), per-shard uptime, and tail latency split between
// healthy and degraded dispatch windows (timeouts capped into the quantile
// via LatencyHistogram::CappedQuantile, so a hung shard cannot *improve* the
// reported tail).
//
// Everything simulated is deterministic: --bench_threads changes only host
// wall-clock, never a result byte (farm_resilience_test pins every recovery
// mode's digest at 1/4/16 host threads). --json writes BENCH_resilience.json.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/farm/farm.h"

namespace sgxb {
namespace {

struct SweepPoint {
  uint32_t fault_events;
  RecoveryMode mode;
  FarmResult result;
};

double CyclesToUs(double cycles, double ghz) { return cycles / (ghz * 1e3); }

std::vector<RecoveryMode> ResolveRecoveries(const std::string& csv) {
  std::vector<RecoveryMode> out;
  if (csv == "all") {
    for (uint32_t i = 0; i < kRecoveryModeCount; ++i) {
      out.push_back(static_cast<RecoveryMode>(i));
    }
    return out;
  }
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) {
      RecoveryMode m;
      if (!ParseRecoveryMode(tok, &m)) {
        std::string valid;
        for (const std::string& name : RecoveryModeChoices()) {
          valid += valid.empty() ? name : "|" + name;
        }
        std::fprintf(stderr, "--recoveries: unknown mode '%s' (valid: %s|all)\n",
                     tok.c_str(), valid.c_str());
        std::exit(2);
      }
      out.push_back(m);
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "--recoveries: empty list\n");
    std::exit(2);
  }
  return out;
}

double MinUptime(const ResilienceReport& rr) {
  double m = 1.0;
  for (const ShardAvailability& av : rr.shards) {
    m = std::min(m, av.uptime);
  }
  return m;
}

void WriteResilienceJson(const std::vector<SweepPoint>& points, const FarmConfig& proto,
                         uint32_t mid_rate,
                         const std::vector<std::pair<std::string, double>>& retention) {
  std::FILE* f = std::fopen("BENCH_resilience.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[json] cannot write BENCH_resilience.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"binary\": \"fig16_resilience\",\n");
  std::fprintf(f, "  \"app\": \"%s\",\n", FarmAppName(proto.app));
  std::fprintf(f, "  \"policy\": \"%s\",\n", PolicyName(proto.policy));
  std::fprintf(f, "  \"shards\": %u,\n", proto.shards);
  std::fprintf(f, "  \"requests\": %" PRIu64 ",\n", proto.load.requests);
  std::fprintf(f, "  \"offered_rps\": %.0f,\n", proto.offered_rps);
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", proto.load.seed);
  std::fprintf(f, "  \"bench_threads\": %u,\n", ResolveBenchThreads());
  // Headline: goodput retention at the mid fault rate, per recovery mode —
  // the "failover+hedge sustains, fail-stop collapses" comparison.
  std::fprintf(f, "  \"mid_fault_rate\": %u,\n", mid_rate);
  std::fprintf(f, "  \"goodput_retention_at_mid\": {");
  for (size_t i = 0; i < retention.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.4f", i == 0 ? "" : ", ", retention[i].first.c_str(),
                 retention[i].second);
  }
  std::fprintf(f, "},\n  \"rows\": [");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const FarmResult& r = p.result;
    const ResilienceReport& rr = r.resilience;
    std::fprintf(f,
                 "%s\n    {\"fault_events\": %u, \"recovery\": \"%s\", "
                 "\"completed\": %" PRIu64 ", \"failed_app\": %" PRIu64
                 ", \"failed_timeout\": %" PRIu64 ", \"attempts\": %" PRIu64
                 ", \"retries\": %" PRIu64 ", \"hedges\": %" PRIu64
                 ", \"hedge_wins\": %" PRIu64 ", \"timed_out_attempts\": %" PRIu64
                 ", \"detections\": %" PRIu64 ", \"convictions\": %" PRIu64
                 ", \"restarts\": %" PRIu64 ", \"failovers\": %" PRIu64
                 ", \"goodput_rps\": %.1f, \"min_uptime\": %.4f"
                 ", \"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f"
                 ", \"healthy_p99_us\": %.2f, \"degraded_p99_us\": %.2f"
                 ", \"degraded_p999_us\": %.2f, \"timeouts\": %" PRIu64
                 ", \"uptime\": [",
                 i == 0 ? "" : ",", p.fault_events, RecoveryModeName(p.mode),
                 rr.completed, rr.failed_app, rr.failed_timeout, rr.attempts,
                 rr.retries, rr.hedges, rr.hedge_wins, rr.timed_out_attempts,
                 rr.detections, rr.convictions, rr.restarts, rr.failovers,
                 rr.goodput_rps, MinUptime(rr),
                 CyclesToUs(r.latency.CappedQuantile(0.50), proto.ghz),
                 CyclesToUs(r.latency.CappedQuantile(0.99), proto.ghz),
                 CyclesToUs(r.latency.CappedQuantile(0.999), proto.ghz),
                 CyclesToUs(rr.healthy.CappedQuantile(0.99), proto.ghz),
                 CyclesToUs(rr.degraded.CappedQuantile(0.99), proto.ghz),
                 CyclesToUs(rr.degraded.CappedQuantile(0.999), proto.ghz),
                 r.latency.timeout_count());
    for (size_t s = 0; s < rr.shards.size(); ++s) {
      std::fprintf(f, "%s%.4f", s == 0 ? "" : ", ", rr.shards[s].uptime);
    }
    std::fprintf(f, "], \"digest\": \"%016" PRIx64 "\"}", r.digest);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[json] wrote BENCH_resilience.json (%zu rows)\n", points.size());
}

int Main(int argc, char** argv) {
  FlagParser parser;
  AddBenchDriverFlags(parser);
  std::string app = "kvstore";
  std::string policy = "sgxbounds";
  std::string rates_csv = "0,2,4,8";
  std::string recoveries_csv = "all";
  std::string transitions = "sync";
  uint64_t shards = 8;
  uint64_t requests = 20000;
  uint64_t keyspace = 4096;
  uint64_t seed = 42;
  uint64_t vnodes = 64;
  double rps = 1200000;
  parser.AddChoice("app", &app, FarmAppChoices(), "farm app to serve");
  parser.AddString("policy", &policy, "memory-safety scheme for every shard");
  parser.AddString("fault_rates", &rates_csv,
                   "comma-separated fault-event counts to sweep (0 = fault-free "
                   "baseline)");
  parser.AddString("recoveries", &recoveries_csv,
                   "comma-separated recovery policies "
                   "(failstop|restart|failover|failover+hedge|all)");
  parser.AddChoice("transitions", &transitions, {"off", "sync", "switchless"},
                   "enclave transition cost axis");
  parser.AddUint("shards", &shards, "shard count");
  parser.AddUint("requests", &requests, "requests per run");
  parser.AddUint("keyspace", &keyspace, "distinct keys");
  parser.AddUint("seed", &seed, "load + fault campaign seed");
  parser.AddUint("vnodes", &vnodes, "ring points per shard");
  parser.AddDouble("rps", &rps, "open-loop offered requests/second");
  parser.Parse(argc, argv);

  FarmConfig proto;
  if (!ParseFarmApp(app, &proto.app)) {
    std::fprintf(stderr, "--app: unknown app '%s'\n", app.c_str());
    return 2;
  }
  if (!std::isfinite(rps) || !(rps > 0.0)) {
    std::fprintf(stderr, "--rps: %g is not a finite rate > 0 requests/second\n", rps);
    return 2;
  }
  proto.policy = ParsePolicyKind(policy);  // exits(2) on unknown id
  proto.shards = static_cast<uint32_t>(shards);
  proto.vnodes = static_cast<uint32_t>(vnodes);
  proto.load.requests = requests;
  proto.load.keyspace = keyspace;
  proto.load.seed = seed;
  proto.open_loop = true;
  proto.offered_rps = rps;
  proto.host_threads = ResolveBenchThreads();
  proto.machine.seed = seed;
  if (transitions == "sync") {
    proto.machine.costs.EnableTransitions(/*use_switchless=*/false);
  } else if (transitions == "switchless") {
    proto.machine.costs.EnableTransitions(/*use_switchless=*/true);
  }
  PrintReproHeader("resilience", proto.machine);

  proto.machine.recovery.enabled = true;
  const std::vector<uint64_t> rates = ParseU64List(rates_csv, "fault_rates", 0, requests);
  const std::vector<RecoveryMode> modes = ResolveRecoveries(recoveries_csv);

  std::vector<SweepPoint> points;
  Table table({"faults", "recovery", "completed", "failed", "t/o", "retries",
               "hedge w/l", "detect", "f/o", "rst", "min up", "goodput kop/s",
               "good%", "p99 us", "degr p99", "p999 us"});
  // Fault-free goodput per mode, the retention denominator.
  std::vector<double> base_goodput(kRecoveryModeCount, 0.0);
  for (const uint64_t rate : rates) {
    if (rate != rates.front()) {
      table.AddSeparator();
    }
    for (const RecoveryMode mode : modes) {
      FarmConfig cfg = proto;
      cfg.resilience.enabled = true;
      cfg.resilience.mode = mode;
      cfg.resilience.shard_faults = ShardFaultPlan::Sampled(
          seed, cfg.shards, cfg.load.requests, static_cast<uint32_t>(rate));
      std::fprintf(stderr, "[resilience] faults=%" PRIu64 " recovery=%s...\n", rate,
                   RecoveryModeName(mode));
      const FarmResult r = RunFarm(cfg);
      const ResilienceReport& rr = r.resilience;
      if (rate == 0) {
        base_goodput[static_cast<size_t>(mode)] = rr.goodput_rps;
      }
      const double base = base_goodput[static_cast<size_t>(mode)];
      const double retention = base > 0 ? 100.0 * rr.goodput_rps / base : 0.0;
      char hedge[32];
      std::snprintf(hedge, sizeof hedge, "%" PRIu64 "/%" PRIu64, rr.hedge_wins,
                    rr.hedges);
      table.AddRow({std::to_string(rate), RecoveryModeName(mode),
                    std::to_string(rr.completed),
                    std::to_string(rr.failed_app + rr.failed_timeout),
                    std::to_string(rr.timed_out_attempts), std::to_string(rr.retries),
                    hedge, std::to_string(rr.detections + rr.convictions),
                    std::to_string(rr.failovers), std::to_string(rr.restarts),
                    FormatDouble(100.0 * MinUptime(rr), 1),
                    FormatDouble(rr.goodput_rps / 1000.0, 1), FormatDouble(retention, 1),
                    FormatDouble(CyclesToUs(r.latency.CappedQuantile(0.99), cfg.ghz), 1),
                    FormatDouble(CyclesToUs(rr.degraded.CappedQuantile(0.99), cfg.ghz), 1),
                    FormatDouble(CyclesToUs(r.latency.CappedQuantile(0.999), cfg.ghz), 1)});
      SweepPoint p;
      p.fault_events = static_cast<uint32_t>(rate);
      p.mode = mode;
      p.result = r;
      points.push_back(std::move(p));
    }
  }
  std::printf("\n== %s / %s / %u shards @ %.0f krps offered : availability vs "
              "fault rate ==\n",
              FarmAppName(proto.app), PolicyName(proto.policy), proto.shards,
              rps / 1000.0);
  table.Print();

  // Headline comparison at the mid fault rate.
  const uint32_t mid_rate = static_cast<uint32_t>(rates[rates.size() / 2]);
  std::vector<std::pair<std::string, double>> retention;
  for (const SweepPoint& p : points) {
    if (p.fault_events != mid_rate) {
      continue;
    }
    const double base = base_goodput[static_cast<size_t>(p.mode)];
    retention.emplace_back(RecoveryModeName(p.mode),
                           base > 0 ? p.result.resilience.goodput_rps / base : 0.0);
  }
  std::printf("\n[headline] goodput retention at %u fault events:", mid_rate);
  for (const auto& [name, frac] : retention) {
    std::printf(" %s=%.1f%%", name.c_str(), 100.0 * frac);
  }
  std::printf("\n");

  if (JsonFlag()) {
    WriteResilienceJson(points, proto, mid_rate, retention);
  }
  return 0;
}

}  // namespace
}  // namespace sgxb

int main(int argc, char** argv) { return sgxb::Main(argc, argv); }
