/**
 * @file
 * Shared helpers for the figure/table reproduction benches: standard
 * block-size sweeps, array construction at bench scale, and aligned
 * table printing.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "wkld/runner.h"
#include "wkld/setup.h"
#include "wkld/target.h"

namespace raizn::bench {

/// Observability flags shared by the benches: --metrics-out <path>
/// writes the registry JSON, --trace-out <path> the Chrome trace,
/// --timeseries-out <path> per-interval CSV rows of every metric
/// (--timeseries-interval-ms sets the sampling period), and --smoke
/// bounds the run for ctest.
struct ObsOptions {
    std::string metrics_out;
    std::string trace_out;
    std::string timeseries_out;
    std::string prof_out;  ///< host profiler JSON summary
    std::string flame_out; ///< collapsed-stack flamegraph (folded)
    uint64_t timeseries_interval_ms = 100;
    bool smoke = false;
};

/**
 * Consumes the observability flags from argv; returns false (and
 * prints usage) on an unrecognized argument so benches without flags
 * of their own can pass argc/argv straight through.
 */
inline bool
parse_obs_args(int argc, char **argv, ObsOptions *out)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--metrics-out" && i + 1 < argc) {
            out->metrics_out = argv[++i];
        } else if (a == "--trace-out" && i + 1 < argc) {
            out->trace_out = argv[++i];
        } else if (a == "--timeseries-out" && i + 1 < argc) {
            out->timeseries_out = argv[++i];
        } else if (a == "--timeseries-interval-ms" && i + 1 < argc) {
            out->timeseries_interval_ms =
                std::strtoull(argv[++i], nullptr, 10);
            if (out->timeseries_interval_ms == 0)
                out->timeseries_interval_ms = 100;
        } else if (a == "--prof-out" && i + 1 < argc) {
            out->prof_out = argv[++i];
        } else if (a == "--flame-out" && i + 1 < argc) {
            out->flame_out = argv[++i];
        } else if (a == "--smoke") {
            out->smoke = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--metrics-out m.json] "
                         "[--trace-out t.json] "
                         "[--timeseries-out t.csv] "
                         "[--timeseries-interval-ms N] "
                         "[--prof-out p.json] [--flame-out f.folded] "
                         "[--smoke]\n",
                         argv[0]);
            return false;
        }
    }
    return true;
}

/// Inserts ".tag" before the path's extension ("a/b.csv", "md" ->
/// "a/b.md.csv"), so one --timeseries-out flag can name several runs.
inline std::string
path_with_tag(const std::string &path, const std::string &tag)
{
    size_t slash = path.find_last_of('/');
    size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + tag;
    }
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/// Builds a Timeline for one bench run's loop at the configured
/// interval (caller wires probes/detector and calls start()).
inline std::unique_ptr<obs::Timeline>
make_timeline(const ObsOptions &oo, EventLoop *loop,
              obs::MetricsRegistry *reg)
{
    obs::TimelineConfig cfg;
    cfg.interval = oo.timeseries_interval_ms * kNsPerMs;
    // Benches keep every row: 1<<16 rows outlives any bench run.
    cfg.capacity = 1 << 16;
    return std::make_unique<obs::Timeline>(loop, reg, cfg);
}

/// Flushes the final partial interval and writes the CSV when
/// --timeseries-out was given (with `tag` when non-empty).
inline void
finish_timeline(const ObsOptions &oo, obs::Timeline *tl,
                const std::string &tag = "")
{
    tl->sample_now();
    tl->stop();
    if (oo.timeseries_out.empty())
        return;
    std::string path = tag.empty()
        ? oo.timeseries_out
        : path_with_tag(oo.timeseries_out, tag);
    Status s = tl->write_csv(path);
    std::printf("timeseries csv: %s (%zu rows x %zu cols)%s\n",
                path.c_str(), tl->size(), tl->columns().size(),
                s.is_ok() ? "" : (" FAILED: " + s.to_string()).c_str());
}

/// Registry + trace ring for one instrumented bench pass, plus the
/// export step (stage table to stdout, JSON files when requested).
struct BenchObs {
    ObsOptions opts;
    obs::MetricsRegistry registry;
    obs::TraceRecorder trace{1 << 16};

    /**
     * Prints the per-stage latency table and writes the JSON outputs.
     * `num_devices` names the device tracks in the Chrome trace.
     */
    void
    finish(uint32_t num_devices)
    {
        std::printf("\n-- per-stage latency breakdown --\n%s",
                    trace.stage_breakdown().c_str());
        if (!opts.metrics_out.empty()) {
            Status s = registry.write_json(opts.metrics_out);
            std::printf("metrics json: %s%s\n", opts.metrics_out.c_str(),
                        s.is_ok() ? "" : (" FAILED: " + s.to_string())
                                             .c_str());
        }
        if (!opts.trace_out.empty()) {
            Status s = trace.write_chrome_json(opts.trace_out,
                                               num_devices);
            std::printf("chrome trace: %s (open in chrome://tracing or "
                        "ui.perfetto.dev)%s\n",
                        opts.trace_out.c_str(),
                        s.is_ok() ? "" : (" FAILED: " + s.to_string())
                                             .c_str());
        }
    }

    /**
     * Coverage of `total_stage` requests: for each traced request that
     * has a `total_stage` span, the fraction of its wall time covered
     * by its other spans. Returns the minimum across sampled requests
     * (worst case), or 0 when none were traced; `*n_out` gets the
     * sample count and `*mean_out` the average when non-null.
     */
    double
    write_coverage(const char *total_stage, size_t *n_out = nullptr,
                   double *mean_out = nullptr) const
    {
        std::vector<double> covs = trace.all_request_coverage(total_stage);
        double worst = covs.empty() ? 0.0 : 1.0, sum = 0.0;
        for (double c : covs) {
            worst = std::min(worst, c);
            sum += c;
        }
        if (n_out != nullptr)
            *n_out = covs.size();
        if (mean_out != nullptr && !covs.empty())
            *mean_out = sum / static_cast<double>(covs.size());
        return worst;
    }
};

/// True when the caller asked for any host-profiler output.
inline bool
prof_requested(const ObsOptions &oo)
{
    return !oo.prof_out.empty() || !oo.flame_out.empty();
}

/**
 * Ends the profiler window, prints the top-10 self-time table, and
 * writes the JSON summary / folded flamegraph files that were
 * requested. No-op if the profiler was never enabled.
 */
inline void
finish_prof(const ObsOptions &oo)
{
    if (!prof::enabled() && prof::wall_ns() == 0)
        return;
    prof::disable();
    std::printf("\n-- host profile: top scopes by self time "
                "(wall %.1f ms, %.0f events/s, coverage %.1f%%) --\n%s",
                static_cast<double>(prof::wall_ns()) * 1e-6,
                prof::events_per_sec(), prof::coverage() * 100.0,
                prof::table(10).c_str());
    if (!oo.prof_out.empty() &&
        prof::write_file(oo.prof_out, prof::summary_json()))
        std::printf("prof json: %s\n", oo.prof_out.c_str());
    if (!oo.flame_out.empty() &&
        prof::write_file(oo.flame_out, prof::folded()))
        std::printf("flamegraph (folded): %s (feed to flamegraph.pl or "
                    "speedscope)\n",
                    oo.flame_out.c_str());
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
