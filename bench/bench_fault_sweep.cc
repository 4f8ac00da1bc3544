/**
 * @file
 * Fault sweep: RAIZN throughput and tail latency vs injected transient
 * error rate, from a healthy array through a fail-slow member to
 * degraded mode. Every device sits behind a FaultInjectingDevice with
 * a seeded schedule, so runs are reproducible. Emits
 * BENCH_fault_sweep.json with one record per (point, workload) for
 * plotting, and prints the volume's resilience counters per point.
 *
 * A second section sweeps the device-failure matrix across every
 * ZonedArray engine (raid0/1/5/6/10/auto, raizn and mdraid): each mode
 * runs a sequential-write pass with 0..tolerance+1 members failed, and
 * the bench ASSERTS the mode-appropriate outcome — error-free IO at or
 * below the mode's fault tolerance, surfaced IO errors beyond it.
 *
 * --smoke runs neither sweep: it is the per-engine observability
 * self-check (ctest fault_sweep_smoke). Each generic ZonedEngine mode
 * runs a short instrumented write pass and the bench asserts that the
 * engine's stage spans cover >=95% of every sampled write's
 * "eng.write" wall time — the same bar the instrumented fig8 pass
 * holds the RAIZN volume to.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "array/engine.h"
#include "array/raid_mode.h"
#include "bench_util.h"
#include "common/logging.h"
#include "fault/fault_device.h"

using namespace raizn;
using namespace raizn::bench;

namespace {

/// make_raizn_array with a fault decorator in front of every device.
struct FaultSweepArray {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
    std::unique_ptr<RaiznVolume> vol;
};

FaultSweepArray
make_faulty_array(const BenchScale &scale, double err_rate, int slow_dev)
{
    FaultSweepArray arr;
    arr.loop = std::make_unique<EventLoop>();
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < scale.num_devices; ++i) {
        ZnsDeviceConfig cfg;
        cfg.nzones = scale.zones_per_device;
        cfg.zone_size = scale.zone_cap_sectors;
        cfg.zone_capacity = scale.zone_cap_sectors;
        cfg.data_mode = scale.data_mode;
        cfg.timing = TimingParams::zns();
        cfg.name = "zns" + std::to_string(i);
        arr.devs.push_back(
            std::make_unique<ZnsDevice>(arr.loop.get(), cfg));
        FaultConfig fc;
        fc.seed = 0xbe9c4 + i;
        fc.read_error_rate = err_rate;
        fc.write_error_rate = err_rate;
        if (static_cast<int>(i) == slow_dev)
            fc.latency_multiplier = 8.0;
        arr.fdevs.push_back(std::make_unique<FaultInjectingDevice>(
            arr.loop.get(), arr.devs.back().get(), fc));
        ptrs.push_back(arr.fdevs.back().get());
    }
    RaiznConfig rcfg;
    rcfg.num_devices = scale.num_devices;
    rcfg.su_sectors = scale.su_sectors;
    auto res = RaiznVolume::create(arr.loop.get(), ptrs, rcfg);
    if (!res.is_ok())
        RAIZN_PANIC("RAIZN create failed: %s",
                    res.status().to_string().c_str());
    arr.vol = std::move(res).value();
    return arr;
}

struct SweepPoint {
    std::string label;
    double err_rate;
    int slow_dev = -1; ///< device with an 8x latency multiplier
    bool degraded = false; ///< device 0 failed before the workload
};

struct Record {
    SweepPoint point;
    std::string mode;
    double mibs;
    double p99_us;
    uint64_t io_retries;
    uint64_t io_timeouts;
    uint64_t dev_errors;
};

Record
run_point(const SweepPoint &pt, const std::string &mode,
          const ObsOptions *oo = nullptr)
{
    constexpr uint32_t kBs = 64; // 256 KiB blocks
    BenchScale scale;
    obs::Session session; // outlives the array it watches
    auto arr = make_faulty_array(scale, pt.err_rate, pt.slow_dev);
    if (oo != nullptr) {
        // Instrumented point: volume + fault-injector counters feed
        // the registry, stage spans feed the trace ring.
        for (uint32_t i = 0; i < arr.fdevs.size(); ++i) {
            obs::link_stats(session.registry(),
                            "fault.dev" + std::to_string(i),
                            arr.fdevs[i]->fault_stats());
        }
        arr.vol->attach(&session);
        session.start();
    }
    ZonedArrayTarget target(arr.vol.get());
    uint64_t zone_cap = arr.vol->zone_capacity();

    double mibs = 0, p99_us = 0;
    if (mode == "seqwrite") {
        if (pt.degraded)
            arr.vol->mark_device_failed(0);
        WorkloadRunner runner(arr.loop.get(), &target);
        auto jobs = seq_jobs(RwMode::kSeqWrite, kBs, 8, 64,
                             target.capacity(), zone_cap);
        for (auto &j : jobs)
            j.io_limit = kIosPerJob;
        auto res = runner.run_merged(jobs);
        mibs = res.throughput_mibs();
        p99_us = static_cast<double>(res.latency.p99()) / 1e3;
    } else { // randread
        prime_target(arr.loop.get(), &target, target.capacity());
        if (pt.degraded)
            arr.vol->mark_device_failed(0);
        WorkloadRunner runner(arr.loop.get(), &target);
        JobSpec s = rand_read_job(kBs, 256, target.capacity());
        s.io_limit = 8 * kIosPerJob;
        auto res = runner.run_merged({s});
        mibs = res.throughput_mibs();
        p99_us = static_cast<double>(res.latency.p99()) / 1e3;
    }

    const VolumeStats &st = arr.vol->stats();
    std::printf("  %-10s %-9s %8.0f MiB/s  p99 %7.0f us  %s\n",
                pt.label.c_str(), mode.c_str(), mibs, p99_us,
                st.dump().c_str());
    if (oo != nullptr) {
        std::printf("  instrumented point: %s %s\n", pt.label.c_str(),
                    mode.c_str());
        std::printf("\n-- per-stage latency breakdown --\n%s",
                    session.trace().stage_breakdown().c_str());
        write_obs(*oo, session, "");
    }
    return {pt,        mode,          mibs,         p99_us,
            st.io_retries, st.io_timeouts, st.dev_errors};
}

// ---------------------------------------------------------------------
// Cross-engine failure matrix
// ---------------------------------------------------------------------

struct EngineArray {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::unique_ptr<ZonedEngine> eng;
};

EngineArray
make_engine_array(RaidMode mode, const BenchScale &scale)
{
    EngineArray arr;
    arr.loop = std::make_unique<EventLoop>();
    // Mirror pairs need an even member count.
    uint32_t ndev = mode == RaidMode::kRaid10 ? scale.num_devices & ~1u
                                              : scale.num_devices;
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < ndev; ++i) {
        ZnsDeviceConfig cfg;
        cfg.nzones = scale.zones_per_device;
        cfg.zone_size = scale.zone_cap_sectors;
        cfg.zone_capacity = scale.zone_cap_sectors;
        cfg.data_mode = scale.data_mode;
        cfg.timing = TimingParams::zns();
        cfg.name = "zns" + std::to_string(i);
        arr.devs.push_back(
            std::make_unique<ZnsDevice>(arr.loop.get(), cfg));
        ptrs.push_back(arr.devs.back().get());
    }
    EngineConfig ecfg;
    ecfg.mode = mode;
    ecfg.su_sectors = scale.su_sectors;
    auto res = ZonedEngine::create(arr.loop.get(), ptrs, ecfg);
    if (!res.is_ok())
        RAIZN_PANIC("%s create failed: %s",
                    std::string(to_string(mode)).c_str(),
                    res.status().to_string().c_str());
    arr.eng = std::move(res).value();
    return arr;
}

struct MatrixRecord {
    std::string engine;
    uint32_t nfail;
    bool survived;
    double mibs;
    uint64_t errors;
};

/// One (engine, failure-count) cell: seqwrite with `nfail` members
/// down. Panics when the observed outcome contradicts the mode's
/// fault tolerance, making the sweep a pass/fail resilience test.
MatrixRecord
run_matrix_point(RaidMode mode, uint32_t nfail)
{
    constexpr uint32_t kBs = 64;
    BenchScale scale;
    FaultSweepArray rarr;
    MdArray marr;
    EngineArray earr;
    ZonedArray *za = nullptr;
    EventLoop *loop = nullptr;
    if (mode == RaidMode::kRaizn) {
        rarr = make_faulty_array(scale, 0.0, -1);
        za = rarr.vol.get();
        loop = rarr.loop.get();
    } else if (mode == RaidMode::kMdraid) {
        marr = make_mdraid_array(scale);
        za = marr.vol.get();
        loop = marr.loop.get();
    } else {
        earr = make_engine_array(mode, scale);
        za = earr.eng.get();
        loop = earr.loop.get();
    }
    for (uint32_t d = 0; d < nfail; ++d)
        za->mark_device_failed(d);

    ZonedArrayTarget target(za);
    WorkloadRunner runner(loop, &target);
    auto jobs = seq_jobs(RwMode::kSeqWrite, kBs, 4, 64, target.capacity(),
                         za->zone_capacity());
    for (auto &j : jobs)
        j.io_limit = kIosPerJob / 4; // outcome matters, not steady state
    auto res = runner.run_merged(jobs);

    const bool survived = res.errors == 0 && res.bytes > 0;
    const bool expect = nfail <= fault_tolerance(mode);
    std::printf("  %-7s nfail=%u  %8.0f MiB/s  errors=%-6llu %s\n",
                std::string(to_string(mode)).c_str(), nfail,
                res.throughput_mibs(), (unsigned long long)res.errors,
                survived ? "survived" : "degraded-out");
    if (survived != expect)
        RAIZN_PANIC("%s with %u member(s) failed: expected %s, got %s",
                    std::string(to_string(mode)).c_str(), nfail,
                    expect ? "error-free IO" : "surfaced IO errors",
                    survived ? "error-free IO" : "surfaced IO errors");
    return {std::string(to_string(mode)), nfail, survived,
            res.throughput_mibs(), res.errors};
}

/// --smoke: per-engine trace-coverage self-check. A short sequential
/// write pass per generic mode, with the engine's observability
/// attached; every sampled request must be >=95% accounted for by its
/// chunk/parity/WAL sub-spans or a hot path is missing its span.
int
engine_coverage_smoke(const ObsOptions &oo)
{
    print_header("Smoke: eng.write span coverage per ZonedEngine mode");
    // The whole-smoke session holds the profiler window; each mode's
    // session nests in it and goes to <obs-dir>/<mode>/.
    obs::Session whole;
    whole.start();
    int rc = 0;
    for (RaidMode mode :
         {RaidMode::kRaid0, RaidMode::kRaid1, RaidMode::kRaid5,
          RaidMode::kRaid6, RaidMode::kRaid10, RaidMode::kAuto}) {
        PROF_SCOPE("bench.fault_sweep.smoke");
        BenchScale scale;
        obs::Session session;
        auto arr = make_engine_array(mode, scale);
        arr.eng->attach(&session);
        session.start();
        ZonedArrayTarget target(arr.eng.get());
        WorkloadRunner runner(arr.loop.get(), &target);
        auto jobs = seq_jobs(RwMode::kSeqWrite, 64, 4, 64,
                             target.capacity(), arr.eng->zone_capacity());
        for (auto &j : jobs)
            j.io_limit = kIosPerJob / 4;
        runner.run_merged(jobs);

        obs::SpanCoverage cov = session.span_coverage("eng.write");
        const std::string name(to_string(mode));
        std::printf("  %-7s coverage min=%.1f%% mean=%.1f%% over %zu "
                    "writes\n", name.c_str(), cov.min * 100,
                    cov.mean * 100, cov.n);
        if (cov.n == 0 || cov.min < 0.95) {
            std::fprintf(stderr,
                         "FAIL: %s eng.write span coverage %.1f%% below "
                         "95%% (n=%zu)\n",
                         name.c_str(), cov.min * 100, cov.n);
            rc = 1;
        }
        write_obs(oo, session, name);
    }
    whole.close();
    std::printf("%s", whole.prof_table().c_str());
    write_obs(oo, whole, "");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // `--matrix <mode>`: run only that engine's failure-matrix cells
    // (still asserted) and write BENCH_fault_matrix_<mode>.json — the
    // per-mode CI shard artifact.
    if (argc >= 3 && std::string(argv[1]) == "--matrix") {
        RaidMode mode;
        if (!parse_raid_mode(argv[2], &mode)) {
            std::fprintf(stderr, "unknown engine mode '%s'\n", argv[2]);
            return 2;
        }
        print_header("Failure matrix (single engine)");
        std::vector<MatrixRecord> matrix;
        for (uint32_t nfail = 0; nfail <= fault_tolerance(mode) + 1;
             ++nfail)
            matrix.push_back(run_matrix_point(mode, nfail));
        std::string path = "BENCH_fault_matrix_" +
            std::string(to_string(mode)) + ".json";
        FILE *mf = std::fopen(path.c_str(), "w");
        if (!mf) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(mf, "{\n  \"mode_matrix\": [\n");
        for (size_t i = 0; i < matrix.size(); ++i) {
            const MatrixRecord &m = matrix[i];
            std::fprintf(mf,
                         "    {\"engine\": \"%s\", "
                         "\"case\": \"nfail=%u\", \"survived\": %s, "
                         "\"mibs\": %.1f, \"errors\": %llu}%s\n",
                         m.engine.c_str(), m.nfail,
                         m.survived ? "true" : "false", m.mibs,
                         (unsigned long long)m.errors,
                         i + 1 < matrix.size() ? "," : "");
        }
        std::fprintf(mf,
                     "  ],\n"
                     "  \"tolerance\": {\n"
                     "    \"mibs\": {\"rel\": 0.10, \"abs\": 1},\n"
                     "    \"errors\": {\"rel\": 0.50, \"abs\": 20}\n"
                     "  }\n}\n");
        std::fclose(mf);
        std::printf("\nwrote %s (%zu records)\n", path.c_str(),
                    matrix.size());
        return 0;
    }

    ObsOptions oo;
    if (!parse_obs_args(argc, argv, &oo))
        return 2;
    if (oo.smoke)
        return engine_coverage_smoke(oo);
    print_header("Fault sweep: throughput/p99 vs injected error rate");
    HostMeter meter;

    std::vector<SweepPoint> points;
    for (double r : {0.0, 1e-4, 1e-3, 5e-3, 1e-2}) {
        char label[32];
        std::snprintf(label, sizeof(label), "err=%g", r);
        points.push_back({label, r, -1, false});
    }
    points.push_back({"fail-slow", 1e-3, /*slow_dev=*/2, false});
    points.push_back({"degraded", 1e-3, -1, /*degraded=*/true});

    // The err=1e-3 seqwrite point doubles as the instrumented run:
    // retries and error handling show up as extra device spans in its
    // stage breakdown.
    std::vector<Record> records;
    for (const auto &pt : points) {
        for (const char *mode : {"seqwrite", "randread"}) {
            bool instrument = pt.err_rate == 1e-3 && pt.slow_dev < 0 &&
                !pt.degraded && std::string(mode) == "seqwrite";
            records.push_back(
                run_point(pt, mode, instrument ? &oo : nullptr));
        }
    }

    print_header("Failure matrix: outcome vs failed members, per engine");
    std::vector<MatrixRecord> matrix;
    for (RaidMode mode :
         {RaidMode::kRaid0, RaidMode::kRaid1, RaidMode::kRaid5,
          RaidMode::kRaid6, RaidMode::kRaid10, RaidMode::kAuto,
          RaidMode::kRaizn, RaidMode::kMdraid}) {
        for (uint32_t nfail = 0; nfail <= fault_tolerance(mode) + 1;
             ++nfail)
            matrix.push_back(run_matrix_point(mode, nfail));
    }

    FILE *f = std::fopen("BENCH_fault_sweep.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_fault_sweep.json\n");
        return 1;
    }
    BenchScale scale;
    std::fprintf(f,
                 "{\n  \"config\": {\"num_devices\": %u, "
                 "\"zones_per_device\": %u, \"zone_cap_sectors\": %llu, "
                 "\"su_sectors\": %u, \"block_sectors\": 64},\n"
                 "  %s,\n"
                 "  \"points\": [\n",
                 scale.num_devices, scale.zones_per_device,
                 (unsigned long long)scale.zone_cap_sectors,
                 scale.su_sectors, meter.json("").c_str());
    for (size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::fprintf(
            f,
            "    {\"label\": \"%s\", \"err_rate\": %g, "
            "\"slow_dev\": %d, \"degraded\": %s, \"mode\": \"%s\", "
            "\"mibs\": %.1f, \"p99_us\": %.1f, \"io_retries\": %llu, "
            "\"io_timeouts\": %llu, \"dev_errors\": %llu}%s\n",
            r.point.label.c_str(), r.point.err_rate, r.point.slow_dev,
            r.point.degraded ? "true" : "false", r.mode.c_str(), r.mibs,
            r.p99_us, (unsigned long long)r.io_retries,
            (unsigned long long)r.io_timeouts,
            (unsigned long long)r.dev_errors,
            i + 1 < records.size() ? "," : "");
    }
    // The matrix's identity is (engine, case); `survived` is the
    // asserted outcome and must match the baseline exactly.
    std::fprintf(f, "  ],\n  \"mode_matrix\": [\n");
    for (size_t i = 0; i < matrix.size(); ++i) {
        const MatrixRecord &m = matrix[i];
        std::fprintf(f,
                     "    {\"engine\": \"%s\", \"case\": \"nfail=%u\", "
                     "\"survived\": %s, \"mibs\": %.1f, "
                     "\"errors\": %llu}%s\n",
                     m.engine.c_str(), m.nfail,
                     m.survived ? "true" : "false", m.mibs,
                     (unsigned long long)m.errors,
                     i + 1 < matrix.size() ? "," : "");
    }
    // Injected faults perturb tail latency and retry counts more than
    // throughput, so those fields get the widest bands. Host-clock
    // fields are machine-dependent: their bands are wide and
    // report-only (warn), a wall-clock regression baseline rather
    // than a hard gate. The event/alloc/copy counters only move when
    // the code changes, but still warn-only so a legitimate
    // refactor's drift reads as a prompt to regenerate, not a CI red.
    std::fprintf(
        f,
        "  ],\n"
        "  \"tolerance\": {\n"
        "    \"mibs\": {\"rel\": 0.10, \"abs\": 1},\n"
        "    \"p99_us\": {\"rel\": 0.20, \"abs\": 10},\n"
        "    \"io_retries\": {\"rel\": 0.30, \"abs\": 5},\n"
        "    \"io_timeouts\": {\"rel\": 0.30, \"abs\": 3},\n"
        "    \"dev_errors\": {\"rel\": 0.30, \"abs\": 5},\n"
        "    \"errors\": {\"rel\": 0.50, \"abs\": 20},\n"
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
    std::fclose(f);
    std::printf("\nwrote BENCH_fault_sweep.json (%zu records)\n",
                records.size());
    return 0;
}
