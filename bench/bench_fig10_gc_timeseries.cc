/**
 * @file
 * Fig. 10: full-device overwrite timeseries. Workload 1: five
 * concurrent threads each sequentially write 20% of the address
 * space (mixing lifetimes inside the conventional SSDs' erase
 * blocks). Workload 2: one thread sequentially overwrites the entire
 * address space. mdraid collapses when the conventional SSDs exhaust
 * their over-provisioning and start garbage collecting; RAIZN stays
 * flat because ZNS devices do no device-side GC. Points A-D mark
 * 20/40/60/80% of the overwrite.
 *
 * Each run is an obs::Session: its timeline samples every registry
 * metric (volume counters with derived rates, per-device FTL
 * occupancy/GC gauges, zone census, utilization, per-cause ledger
 * bytes) each 100 ms of virtual time and feeds an anomaly detector
 * watching the volume write rate; --obs-dir DIR writes the sessions
 * to DIR/mdraid/ and DIR/raizn/ (timeline.csv among them). The run
 * self-checks the paper's claim: the mdraid series must trip a
 * `throughput_collapse` event inside the overwrite phase, and the
 * RAIZN series must trip none. Emits BENCH_fig10_collapse.json for
 * the CI perf-regression gate.
 *
 *   bench_fig10_gc_timeseries [--smoke] [--obs-dir DIR]
 */
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "obs/anomaly.h"

using namespace raizn;
using namespace raizn::bench;

namespace {

constexpr uint32_t kBs = 64; // 256 KiB writes

struct Series {
    std::vector<Sampler::Sample> samples;
    Tick interval = 0;
    Tick phase2_start = 0;
    Tick end = 0;
    std::vector<Tick> points; // A-D

    // Telemetry summary (filled from the run's anomaly detector and
    // the sampler series; the JSON baseline is written from these).
    uint64_t collapse_events = 0;
    uint64_t recovered_events = 0;
    double first_collapse_s = -1; ///< virtual seconds; -1 = none
    double fill_avg_mibs = 0;
    double worst_mibs = 0;
    double drop_pct = 0;
};

void
phase1(EventLoop *loop, IoTarget *target, uint64_t align, Sampler *s)
{
    WorkloadRunner runner(loop, target);
    auto jobs = seq_jobs(RwMode::kSeqWrite, kBs, 5, 16,
                         target->capacity(), align);
    runner.run(jobs, s);
}

/// Collapse rule on the volume's write rate; warmup absorbs the
/// ramp-in at the head of the fill phase.
obs::AnomalyConfig
collapse_config(const char *rate_series)
{
    obs::AnomalyConfig cfg;
    obs::CollapseRule rule;
    rule.series = rate_series;
    cfg.collapse.push_back(rule);
    return cfg;
}

void
summarize_anomalies(const obs::AnomalyDetector &det, Series *out)
{
    out->collapse_events =
        det.count(obs::AnomalyEvent::Type::kThroughputCollapse);
    out->recovered_events =
        det.count(obs::AnomalyEvent::Type::kThroughputRecovered);
    const obs::AnomalyEvent *first =
        det.first(obs::AnomalyEvent::Type::kThroughputCollapse);
    if (first != nullptr) {
        out->first_collapse_s =
            static_cast<double>(first->t) / kNsPerSec;
    }
    if (!det.events().empty())
        std::printf("%s", det.dump().c_str());
}

Series
run_mdraid(const ObsOptions &oo, const BenchScale &scale)
{
    obs::Session session;
    auto arr = make_mdraid_array(scale);
    arr.vol->attach(&session);
    obs::AnomalyDetector det(
        collapse_config("mdraid.sectors_written.rate"));
    session.timeline()->set_detector(&det);
    session.start();

    ZonedArrayTarget target(arr.vol.get());
    Sampler sampler(100 * kNsPerMs);
    Series out;
    phase1(arr.loop.get(), &target, 0, &sampler);
    out.phase2_start = arr.loop->now();
    // Workload 2: single-thread full overwrite, recording A-D.
    WorkloadRunner runner(arr.loop.get(), &target);
    uint64_t cap = target.capacity() / kBs * kBs;
    for (int fifth = 0; fifth < 5; ++fifth) {
        JobSpec s;
        s.mode = RwMode::kSeqWrite;
        s.block_sectors = kBs;
        s.queue_depth = 16;
        s.region_start = cap / 5 * static_cast<uint64_t>(fifth);
        s.region_len = cap / 5;
        runner.run({s}, &sampler);
        if (fifth < 4)
            out.points.push_back(arr.loop->now());
    }
    out.end = arr.loop->now();
    out.samples = sampler.samples();
    out.interval = sampler.interval();
    write_obs(oo, session, "mdraid");
    summarize_anomalies(det, &out);
    return out;
}

Series
run_raizn(const ObsOptions &oo, const BenchScale &scale)
{
    obs::Session session;
    auto arr = make_raizn_array(scale);
    arr.vol->attach(&session);
    obs::AnomalyDetector det(
        collapse_config("raizn.sectors_written.rate"));
    session.timeline()->set_detector(&det);
    session.start();

    ZonedArrayTarget target(arr.vol.get());
    Sampler sampler(100 * kNsPerMs);
    Series out;
    phase1(arr.loop.get(), &target, arr.vol->zone_capacity(), &sampler);
    out.phase2_start = arr.loop->now();
    // Workload 2 on a zoned volume: reset each zone, then rewrite it.
    WorkloadRunner runner(arr.loop.get(), &target);
    uint32_t zones = arr.vol->num_zones();
    for (uint32_t z = 0; z < zones; ++z) {
        bool done = false;
        arr.vol->reset_zone(z, [&](IoResult) { done = true; });
        arr.loop->run_until_pred([&] { return done; });
        JobSpec s;
        s.mode = RwMode::kSeqWrite;
        s.block_sectors = kBs;
        s.queue_depth = 16;
        s.region_start = arr.vol->layout().zone_start_lba(z);
        s.region_len = arr.vol->zone_capacity();
        runner.run({s}, &sampler);
        if (z > 0 && z % (zones / 5) == 0 && out.points.size() < 4)
            out.points.push_back(arr.loop->now());
    }
    out.end = arr.loop->now();
    out.samples = sampler.samples();
    out.interval = sampler.interval();
    write_obs(oo, session, "raizn");
    summarize_anomalies(det, &out);
    return out;
}

void
print_series(const char *name, Series &s)
{
    std::printf("\n-- %s (one row per %.1fs of virtual time) --\n", name,
                static_cast<double>(s.interval) / kNsPerSec);
    std::printf("%8s %12s %10s %10s %s\n", "t_s", "MiB/s", "p50_us",
                "p999_us", "mark");
    for (const auto &sample : s.samples) {
        std::string mark;
        if (sample.t <= s.phase2_start &&
            s.phase2_start < sample.t + s.interval) {
            mark += " <-- overwrite starts";
        }
        char pt = 'A';
        for (Tick p : s.points) {
            if (sample.t <= p && p < sample.t + s.interval) {
                mark += std::string(" <-- ") + pt;
            }
            pt++;
        }
        std::printf("%8.1f %12.0f %10.0f %10.0f%s\n",
                    static_cast<double>(sample.t) / kNsPerSec,
                    sample.throughput_mibs(s.interval),
                    static_cast<double>(sample.latency.p50()) / 1e3,
                    static_cast<double>(sample.latency.p999()) / 1e3,
                    mark.c_str());
    }
    // Summary: min/max steady throughput before and after.
    double before = 0, worst = 1e18;
    uint64_t nb = 0;
    // Skip the trailing two samples: the final partial interval only
    // contains the workload's drain.
    size_t usable = s.samples.size() > 2 ? s.samples.size() - 2 : 0;
    for (size_t i = 0; i < usable; ++i) {
        const auto &sample = s.samples[i];
        double mibs = sample.throughput_mibs(s.interval);
        if (sample.t < s.phase2_start) {
            before += mibs;
            nb++;
        } else if (mibs > 0 && mibs < worst) {
            worst = mibs;
        }
    }
    if (nb)
        before /= static_cast<double>(nb);
    s.fill_avg_mibs = before;
    s.worst_mibs = worst < 1e18 ? worst : 0;
    s.drop_pct =
        before > 0 ? 100.0 * (1.0 - s.worst_mibs / before) : 0;
    std::printf("   fill-phase avg %.0f MiB/s, worst overwrite sample "
                "%.0f MiB/s (%.0f%% drop)\n",
                s.fill_avg_mibs, s.worst_mibs, s.drop_pct);
}

void
write_json(const BenchScale &scale, bool smoke, const HostMeter &meter,
           const Series &md, const Series &rz, FILE *f)
{
    std::fprintf(f,
                 "{\n  \"config\": {\"num_devices\": %u, "
                 "\"zones_per_device\": %u, \"zone_cap_sectors\": %llu, "
                 "\"su_sectors\": %u, \"block_sectors\": %u, "
                 "\"smoke\": %s},\n"
                 "  %s,\n",
                 scale.num_devices, scale.zones_per_device,
                 (unsigned long long)scale.zone_cap_sectors,
                 scale.su_sectors, kBs, smoke ? "true" : "false",
                 meter.json("").c_str());
    const struct {
        const char *name;
        const Series *s;
    } runs[] = {{"mdraid", &md}, {"raizn", &rz}};
    for (const auto &r : runs) {
        std::fprintf(
            f,
            "  \"%s\": {\"fill_avg_mibs\": %.1f, "
            "\"worst_overwrite_mibs\": %.1f, \"drop_pct\": %.1f, "
            "\"collapse_events\": %llu, \"recovered_events\": %llu, "
            "\"first_collapse_s\": %.2f},\n",
            r.name, r.s->fill_avg_mibs, r.s->worst_mibs, r.s->drop_pct,
            (unsigned long long)r.s->collapse_events,
            (unsigned long long)r.s->recovered_events,
            r.s->first_collapse_s);
    }
    // Collapse/recovery counts gate exactly; analog measurements get
    // bands sized to deterministic-sim drift from future code changes.
    std::fprintf(
        f,
        "  \"tolerance\": {\n"
        "    \"fill_avg_mibs\": {\"rel\": 0.10},\n"
        "    \"worst_overwrite_mibs\": {\"rel\": 0.25, \"abs\": 3},\n"
        "    \"drop_pct\": {\"abs\": 8},\n"
        "    \"collapse_events\": {\"abs\": 0},\n"
        "    \"recovered_events\": {\"abs\": 1},\n"
        "    \"first_collapse_s\": {\"rel\": 0.25, \"abs\": 1},\n"
        "    \"wall_ms\": {\"rel\": 10.0, \"abs\": 5000, \"warn\": true},\n"
        "    \"events_per_sec\": {\"rel\": 10.0, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"events\": {\"rel\": 0.25, \"abs\": 1000, \"warn\": true},\n"
        "    \"alloc_count\": {\"rel\": 0.25, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"alloc_bytes\": {\"rel\": 0.25, \"abs\": 65536, "
        "\"warn\": true},\n"
        "    \"copy_count\": {\"rel\": 0.25, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"copy_bytes\": {\"rel\": 0.25, \"abs\": 65536, "
        "\"warn\": true}\n"
        "  }\n}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ObsOptions oo;
    if (!parse_obs_args(argc, argv, &oo))
        return 2;
    BenchScale scale;
    if (oo.smoke)
        scale.zones_per_device = 12;
    HostMeter meter;

    print_header("Fig 10: device-GC timeseries, full overwrite");
    Series md = run_mdraid(oo, scale);
    print_series("mdraid (conventional SSDs)", md);
    Series rz = run_raizn(oo, scale);
    print_series("RAIZN (ZNS SSDs)", rz);
    std::printf("\nPaper shape: mdraid throughput drops up to 93%% and "
                "tail latency rises ~14x once on-device GC starts, "
                "recovering after point D; RAIZN stays flat.\n");

    FILE *f = std::fopen("BENCH_fig10_collapse.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_fig10_collapse.json\n");
        return 1;
    }
    write_json(scale, oo.smoke, meter, md, rz, f);
    std::fclose(f);
    std::printf("wrote BENCH_fig10_collapse.json\n");

    // Self-check of the paper's claim, as detected (not eyeballed)
    // anomaly events.
    int rc = 0;
    double p2 = static_cast<double>(md.phase2_start) / kNsPerSec;
    if (md.collapse_events == 0) {
        std::fprintf(stderr, "FAIL: mdraid OP-exhaustion collapse not "
                             "detected\n");
        rc = 1;
    } else if (md.first_collapse_s < p2) {
        std::fprintf(stderr,
                     "FAIL: mdraid collapse detected at %.2fs, before "
                     "the overwrite phase began (%.2fs)\n",
                     md.first_collapse_s, p2);
        rc = 1;
    }
    if (rz.collapse_events != 0) {
        std::fprintf(stderr,
                     "FAIL: RAIZN series tripped %llu collapse events; "
                     "the detector is too trigger-happy\n",
                     (unsigned long long)rz.collapse_events);
        rc = 1;
    }
    if (rc == 0) {
        std::printf("self-check OK: mdraid collapse detected at %.2fs "
                    "(overwrite began %.2fs), RAIZN emitted no "
                    "events.\n",
                    md.first_collapse_s, p2);
    }
    return rc;
}
