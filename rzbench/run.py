#!/usr/bin/env python3
"""End-to-end benchmark of the RAIZN reproduction.

    python3 rzbench/run.py --workload fio_timing|kv_bulk|oltp_sync \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds rzbench/ (and the library from
src/) into .bench_build/, then runs one workload process per rep until
S seconds have passed. Every rep of a run uses the same seed, so every
virtual-clock metric must repeat exactly across reps; host-clock
metrics are medians over reps. With --trace 1 untraced and traced reps
alternate: end-to-end numbers still come from the untraced reps, the
traced reps give the per-layer table, and the difference of the two
host_s medians is the tracing overhead.

Prints a human-readable summary, then one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exits non-zero without that line when the build or a rep fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rzbench")
BINARY = os.path.join(BUILD_DIR, "rzbench_wl")
WORKLOADS = ("fio_timing", "kv_bulk", "oltp_sync")

# End-to-end metrics: name -> unit. Host-clock ones are medians over
# the untraced reps; virtual-clock ones (and waf) repeat exactly.
E2E_HOST = {
    "setup_s": "s",
    "host_s": "s",
    "host_write_us": "us",
    "host_read_us": "us",
    "peak_rss_mib": "MiB",
}
E2E_VIRTUAL = {
    "write_kops": "kop/s",
    "read_kops": "kop/s",
    "read_p50_us": "us",
    "write_tail_us": "us",
    "read_tail_us": "us",
    "degraded_read_kops": "kop/s",
    "ttr_s": "s",
    "waf": "ratio",
}
# Reported in the summary only: write_p50_us is 0 on kv_bulk (a put
# that touches only the memtable and the unsynced WAL buffer takes no
# virtual time) and error_rate is 0 everywhere, so neither is gated.
INFO_VIRTUAL = ("write_p50_us", "error_rate")

# Host times are CPU times scaled to a reference machine speed: each
# rep's value times (REF_CALIB_MS / calib_ms) ** CALIB_EXPONENT, where
# calib_ms is the CPU time of the rep's own calibration loop
# (src/calib.h), which uses none of the library. When the shared host
# speeds up or slows down, the loop swings about twice as far as the
# kv_bulk and oltp_sync reps do, so only half of its swing (in log
# terms) is taken as the machine's; README.md has the measurements.
REF_CALIB_MS = 10.0
CALIB_EXPONENT = 0.5
CALIBRATED = ("setup_s", "host_s", "host_write_us", "host_read_us")

MIN_REPS = 3  # per kind (untraced / traced)
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # the whole run must end within 180 s


# Per-layer metrics of the traced run: name -> unit. Per-op ones are
# over the op phases (healthy + degraded), rebuild_* over the
# rebuild, fault.* cumulative since the array was formatted.
PER_LAYER = {
    "sim.events_per_op": "ratio",
    "sim.host_ns_per_event": "ns",
    "zns.cmds_per_op": "ratio",
    "zns.flushes_per_op": "ratio",
    "zns.cmd_lat_us": "us",
    "zns.busy_pct_max": "%",
    "zns.zone_resets": "count",
    "zns.host_us_per_op": "us",
    "fault.io_retries": "count",
    "fault.dev_errors": "count",
    "fault.fail_slow_detected": "count",
    "raizn.pp_log_bytes_per_user_byte": "ratio",
    "raizn.parity_bytes_per_user_byte": "ratio",
    "raizn.fua_dependency_flushes_per_write": "ratio",
    "raizn.relocated_writes": "count",
    "raizn.reconstructed_sectors_per_read": "ratio",
    "raizn.rebuild_bytes_read": "B",
    "raizn.rebuild_bytes_written": "B",
    "raizn.write_lat_us": "us",
    "raizn.read_lat_us": "us",
    "raizn.host_us_per_op": "us",
    "host.alloc_count_per_op": "ratio",
    "host.alloc_bytes_per_op": "B",
    "host.copy_bytes_per_op": "B",
    "env.appends_per_put": "ratio",
    "env.syncs_per_write": "ratio",
    "env.reads_per_get": "ratio",
    "env.read_bytes_per_get": "B",
    "env.append_us": "us",
    "env.sync_us": "us",
    "env.read_us": "us",
    "env.gc_relocated_bytes": "B",
    "env.zones_reclaimed": "count",
    "env.host_us_per_op": "us",
    "kv.memtable_flushes": "count",
    "kv.compactions": "count",
    "kv.compaction_bytes_per_user_byte": "ratio",
    "kv.host_us_per_put": "us",
    "kv.host_us_per_get": "us",
    "oltp.kv_ops_per_txn": "ratio",
    "oltp.host_us_per_txn": "us",
    "wkld.host_us_per_io": "us",
    "trace.residual_share": "ratio",
    "trace.overhead_s": "s",
}


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "rzbench_wl"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))


def run_rep(workload, seed, traced, scale=1.0):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--trace", "1" if traced else "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=REP_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("rep failed (exit %d): %s" %
                           (p.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def run_reps(workload, seed, seconds, trace):
    kinds = [False, True] if trace else [False]
    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        for traced in kinds:
            t0 = time.monotonic()
            reps.append(run_rep(workload, seed, traced))
            longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        done = len(reps) >= MIN_REPS * len(kinds) and elapsed >= seconds
        if done or elapsed + len(kinds) * longest > RUN_LIMIT_S:
            return reps


def consistency_problems(reps):
    """Every rep of one seed must agree on inputs and virtual metrics."""
    problems = []
    first = reps[0]
    for r in reps[1:]:
        if r["inputs_digest"] != first["inputs_digest"]:
            problems.append("inputs differ between reps of one seed")
        if r["virtual"] != first["virtual"]:
            kind = "traced" if r["traced"] else "untraced"
            problems.append("virtual metrics differ (%s rep)" % kind)
    for r in reps:
        for name, ok in r["checks"].items():
            if not ok:
                problems.append("check failed: " + name)
    return sorted(set(problems))


def median(reps, section, name):
    return statistics.median(r[section][name] for r in reps)


def host_median(reps, name):
    def value(r):
        v = r["host"][name]
        if name in CALIBRATED:
            v *= (REF_CALIB_MS / r["host"]["calib_ms"]) ** CALIB_EXPONENT
        return v
    return statistics.median(value(r) for r in reps)


def summarize(workload, seed, reps, trace):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = consistency_problems(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    first = untraced[0]

    print("== rzbench %s seed=%d: %d untraced + %d traced reps" %
          (workload, seed, len(untraced), len(traced)))
    metrics = {}
    if not trace:
        for name, unit in E2E_HOST.items():
            metrics[name] = {"value": host_median(untraced, name),
                             "unit": unit}
        for name, unit in E2E_VIRTUAL.items():
            metrics[name] = {"value": first["virtual"][name], "unit": unit}
        for name, m in metrics.items():
            print("  %-20s %16.6f %s" % (name, m["value"], m["unit"]))
        for name in INFO_VIRTUAL:
            print("  %-20s %16.6f (not gated)" %
                  (name, first["virtual"][name]))
        print("  calibration loop %.3f ms CPU (reference %.1f ms); "
              "uncalibrated: %s" %
              (median(untraced, "host", "calib_ms"), REF_CALIB_MS,
               " ".join("%s=%.6g" % (name, median(untraced, "host", name))
                        for name in CALIBRATED)))
        for op in ("write", "read"):
            t = first["tails"][op]
            print("  %s_tail_us is the mean p%g of %d phase(s), %d "
                  "samples" % (op, t["q"] * 100, t["phases"], t["n"]))
    else:
        host_u = host_median(untraced, "host_s")
        host_t = host_median(traced, "host_s")
        for name, unit in PER_LAYER.items():
            if name in traced[0]["layers"]:
                metrics[name] = {"value": median(traced, "layers", name),
                                 "unit": unit}
        metrics["trace.overhead_s"] = {"value": host_t - host_u,
                                       "unit": "s"}
        print("  per-layer metrics (median of traced reps):")
        for name, m in metrics.items():
            print("    %-42s %16.6f %s" % (name, m["value"], m["unit"]))
        print("  host self time by layer (median of traced reps):")
        window = median(traced, "self_s", "window")
        for name in traced[0]["self_s"]:
            v = median(traced, "self_s", name)
            print("    %-10s %10.6f s %6.1f%%" %
                  (name, v, 100.0 * v / window if window else 0.0))
        print("  traced host_s %.6f s - untraced host_s %.6f s = "
              "tracing overhead %.6f s" % (host_t, host_u, host_t - host_u))
        for name, ok in traced[0]["checks"].items():
            if name.startswith("trace."):
                print("  conservation %-40s %s" %
                      (name, "ok" if ok else "FAILED"))
    print("  attempted %d, failed %d, error_rate %g" %
          (attempted, failed, failed / attempted if attempted else 0.0))
    for p in problems:
        print("  PROBLEM: " + p)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        reps = run_reps(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        print("rzbench: %s" % e, file=sys.stderr)
        return 1
    result = summarize(args.workload, args.seed, reps, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
