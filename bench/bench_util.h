/**
 * @file
 * Shared helpers for the figure/table reproduction benches: standard
 * block-size sweeps, array construction at bench scale, and aligned
 * table printing.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/prof/prof.h"
#include "obs/session.h"
#include "wkld/runner.h"
#include "wkld/setup.h"
#include "wkld/target.h"

namespace raizn::bench {

/// Flags shared by the benches: --obs-dir DIR writes each
/// instrumented run's obs::Session artifacts (metrics, trace,
/// timeline, ledger, host profile, manifest) under DIR, one
/// subdirectory per run; --smoke bounds the run for ctest.
struct ObsOptions {
    std::string obs_dir;
    bool smoke = false;
};

/**
 * Consumes the shared flags from argv; returns false (and prints
 * usage) on an unrecognized argument so benches without flags of
 * their own can pass argc/argv straight through.
 */
inline bool
parse_obs_args(int argc, char **argv, ObsOptions *out)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--obs-dir" && i + 1 < argc) {
            out->obs_dir = argv[++i];
        } else if (a == "--smoke") {
            out->smoke = true;
        } else {
            std::fprintf(stderr, "usage: %s [--obs-dir DIR] [--smoke]\n",
                         argv[0]);
            return false;
        }
    }
    return true;
}

/**
 * Closes `s` and, with --obs-dir, writes it to `<obs-dir>/<run>` (the
 * obs dir itself when `run` is empty). A failed write ends the bench.
 */
inline void
write_obs(const ObsOptions &oo, obs::Session &s, const std::string &run)
{
    s.close();
    if (oo.obs_dir.empty())
        return;
    std::string dir = run.empty() ? oo.obs_dir : oo.obs_dir + "/" + run;
    Status st = s.write(dir);
    if (!st.is_ok()) {
        std::fprintf(stderr, "FAIL: obs dir %s: %s\n", dir.c_str(),
                     st.to_string().c_str());
        std::exit(1);
    }
    std::printf("obs dir: %s\n", dir.c_str());
}

/**
 * Wall-clock + hot-path counter snapshot for the `host` block of a
 * BENCH_*.json. Reads the profiler's unconditional counters, so it
 * works whether or not scope timing is enabled.
 */
struct HostMeter {
    uint64_t t0_ns = 0;
    uint64_t ev0 = 0, alloc0 = 0, alloc_bytes0 = 0;
    uint64_t copy0 = 0, copy_bytes0 = 0;

    HostMeter() { restart(); }

    void
    restart()
    {
        t0_ns = prof::host_now_ns();
        ev0 = prof::g_events_dispatched;
        alloc0 = prof::g_alloc_count;
        alloc_bytes0 = prof::g_alloc_bytes;
        copy0 = prof::g_copy_count;
        copy_bytes0 = prof::g_copy_bytes;
    }

    double
    wall_ms() const
    {
        return static_cast<double>(prof::host_now_ns() - t0_ns) * 1e-6;
    }

    double
    events_per_sec() const
    {
        double s = static_cast<double>(prof::host_now_ns() - t0_ns) * 1e-9;
        if (s <= 0.0)
            return 0.0;
        return static_cast<double>(prof::g_events_dispatched - ev0) / s;
    }

    /**
     * Renders the `host` JSON object (no trailing comma/newline), e.g.
     *   "host": {"wall_ms": 812.4, "events_per_sec": 1.2e6, ...}
     * Bench writers embed it next to their existing fields; bench-gate
     * bands for these fields are wide and report-only (see
     * tools/bench_gate.py "warn" bands).
     */
    std::string
    json(const char *indent) const
    {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s\"host\": {\"wall_ms\": %.3f, \"events_per_sec\": %.1f, "
            "\"events\": %llu, \"alloc_count\": %llu, "
            "\"alloc_bytes\": %llu, \"copy_count\": %llu, "
            "\"copy_bytes\": %llu}",
            indent, wall_ms(), events_per_sec(),
            static_cast<unsigned long long>(prof::g_events_dispatched -
                                            ev0),
            static_cast<unsigned long long>(prof::g_alloc_count - alloc0),
            static_cast<unsigned long long>(prof::g_alloc_bytes -
                                            alloc_bytes0),
            static_cast<unsigned long long>(prof::g_copy_count - copy0),
            static_cast<unsigned long long>(prof::g_copy_bytes -
                                            copy_bytes0));
        return buf;
    }
};

/// Paper sweep: 4 KiB .. 1 MiB block sizes (in sectors).
inline const std::vector<uint32_t> kBlockSweep = {1, 4, 16, 64, 256};

/// Stripe-unit sweep of Figs. 7/8: 8..128 KiB (in sectors).
inline const std::vector<uint32_t> kSuSweep = {2, 4, 8, 16, 32};

inline std::string
block_label(uint32_t sectors)
{
    uint64_t bytes = static_cast<uint64_t>(sectors) * kSectorSize;
    if (bytes >= kMiB)
        return std::to_string(bytes / kMiB) + "M";
    return std::to_string(bytes / kKiB) + "K";
}

inline void
print_header(const char *title)
{
    std::printf("\n==== %s ====\n", title);
}

/// io budget per configuration: enough for steady state, cheap to run.
inline constexpr uint64_t kIosPerJob = 1500;

/// Runs the paper's three §6.1 microbenchmark workloads on a target
/// and returns (throughput MiB/s, p50 us, p99.9 us).
struct WorkloadPoint {
    double mibs = 0;
    double p50_us = 0;
    double p999_us = 0;
};

inline WorkloadPoint
run_seq(EventLoop *loop, IoTarget *target, RwMode mode, uint32_t bs,
        uint64_t zone_align)
{
    WorkloadRunner runner(loop, target);
    auto jobs = seq_jobs(mode, bs, 8, 64, target->capacity(), zone_align);
    for (auto &j : jobs)
        j.io_limit = kIosPerJob;
    auto res = runner.run_merged(jobs);
    return {res.throughput_mibs(),
            static_cast<double>(res.latency.p50()) / 1e3,
            static_cast<double>(res.latency.p999()) / 1e3};
}

inline WorkloadPoint
run_rand_read(EventLoop *loop, IoTarget *target, uint32_t bs)
{
    WorkloadRunner runner(loop, target);
    JobSpec s = rand_read_job(bs, 256, target->capacity());
    s.io_limit = 8 * kIosPerJob;
    auto res = runner.run_merged({s});
    return {res.throughput_mibs(),
            static_cast<double>(res.latency.p50()) / 1e3,
            static_cast<double>(res.latency.p999()) / 1e3};
}

} // namespace raizn::bench
