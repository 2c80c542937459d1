#!/usr/bin/env python3
"""Smoke test of the host-speed benchmark.

Runs every workload at the tiny size, untraced and traced, and checks that

  * the last stdout line is JSON with exactly the keys correct, attempted,
    failed and metrics, and the run is correct with no failed job;
  * the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) list, each with its unit;
  * every metric the benchmark was specified with is printed or listed in
    hostbench/dropped.json with a reason;
  * traced and untraced runs give the same simulated digest.

    python3 hostbench/smoke_test.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every end-to-end and per-layer metric the benchmark was specified with.
SPECIFIED = (
    ["wall_s", "cpu_s", "setup_s", "job_cpu_ms_p50", "job_cpu_ms_p90", "sim_maccess_per_cpu_s",
     "ir_minstr_per_cpu_s", "sweep_configs_per_s", "farm_requests_per_s", "peak_rss_mb",
     "fail_frac", "host_parallel.idle_frac", "enclave.setup_ms", "sim.replay_ns_per_event",
     "sim.replay_share_of_live", "trace.record_overhead", "trace.record_ms", "trace.decode_ms",
     "trace.decode_ns_per_event", "trace.events", "trace.encoded_mb", "trace.capture_ms",
     "trace.reprice_us_paging", "trace.reprice_us_fit", "trace.full_replay_ms", "sweep.run_ms",
     "sweep.memo_hits", "sweep.captures_built", "sweep.capture_replays", "sweep.full_replays",
     "ir.decode_hits", "ir.decode_misses", "ir.jit_compiles", "ir.jit_compile_ms",
     "ir.jit_code_kb", "ir.jit_noexec_fallbacks", "ir.checks_inserted", "ir.checks_elided",
     "farm.loadgen_ms", "farm.ring_route_ns", "farm.run_ms.plain", "farm.run_ms.failstop",
     "farm.run_ms.failover-hedge", "farm.timing_ms", "farm.retries", "farm.hedges",
     "bench.trace_overhead_frac"]
    + ["policy.%s.cpu_s" % s for s in ["native", "mpx", "asan", "sgxbounds", "l4ptr", "shadow"]]
    + ["policy.%s.host_over_native" % s for s in ["mpx", "asan", "sgxbounds", "l4ptr", "shadow"]]
    + ["workloads.%s.cpu_s" % s for s in ["phoenix", "parsec", "spec"]]
    + ["ir.%s.%s" % (e, m) for e in ["threaded", "jit"] for m in ["cpu_s", "ns_per_instr"]]
    + ["ir.%s.jit_over_threaded" % k for k in ["ir_copy", "ir_mix", "ir_stencil", "ir_prng"]])


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    digest = re.search(r"sim_digest=([0-9a-f]{16})", proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), (digest.group(1) if digest else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "dropped.json")) as f:
        dropped = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    declared = set(expected[0]) | set(expected[1])
    for name in SPECIFIED:
        if name not in declared and not dropped.get(name):
            errors.append("%s is neither measured nor listed as dropped" % name)
    for name in dropped:
        if name in declared:
            errors.append("%s is both measured and listed as dropped" % name)

    for w in bench["workloads"]:
        digests = {}
        for trace in (0, 1):
            code, line, digest = run(w["name"], trace)
            where = "%s --trace %d" % (w["name"], trace)
            try:
                result = json.loads(line)
            except ValueError:
                errors.append("%s: last line is not JSON (exit %d)" % (where, code))
                continue
            if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: exit %d, keys %s" % (where, code, sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                errors.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, result["correct"], result["attempted"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                              "unit mismatch %s" % (
                                  where, sorted(set(expected[trace]) - set(got)),
                                  sorted(set(got) - set(expected[trace])),
                                  sorted(k for k in got if k in expected[trace]
                                         and got[k] != expected[trace][k])))
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    errors.append("%s: %s is not a number" % (where, k))
            digests[trace] = digest
        if None in digests.values() or len(set(digests.values())) != 1:
            errors.append("%s: simulated digests differ between traced and untraced runs: %s"
                          % (w["name"], digests))
        print("%-12s %s" % (w["name"], "ok" if not errors else "see errors"))

    for e in errors:
        print("FAIL " + e)
    print("smoke test %s" % ("passed" if not errors else "FAILED"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
