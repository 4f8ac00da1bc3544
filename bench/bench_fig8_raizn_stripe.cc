/**
 * @file
 * Fig. 8: RAIZN throughput (sequential read, sequential write, random
 * read) vs block size, one series per stripe-unit size 8..128 KiB.
 * Paper observation 1: 64 KiB stripe units perform best overall for
 * RAIZN (only 4 KiB sequential reads prefer smaller units).
 *
 * Also the reference producer for the observability layer: an
 * instrumented pass at the paper's default stripe-unit size records
 * every write stage (data, parity, partial-parity log, FUA flushes,
 * device commands), prints the per-stage latency breakdown, and — via
 * --metrics-out / --trace-out / --timeseries-out — exports the
 * metrics registry, a Chrome trace, and the per-interval telemetry
 * CSV. --smoke skips the full sweep (ctest obs_smoke budget).
 */
#include <cstdio>

#include "bench_util.h"
#include "obs/ledger.h"

using namespace raizn;
using namespace raizn::bench;

namespace {

void
full_sweep()
{
    print_header("Fig 8: RAIZN throughput vs block size per SU size");
    for (const char *wl : {"seqread", "write", "randread"}) {
        std::printf("\n-- RAIZN %s (MiB/s) --\n%-6s", wl, "bs");
        for (uint32_t su : kSuSweep)
            std::printf(" %9s", (block_label(su) + "-su").c_str());
        std::printf("\n");
        for (uint32_t bs : kBlockSweep) {
            std::printf("%-6s", block_label(bs).c_str());
            for (uint32_t su : kSuSweep) {
                BenchScale scale;
                scale.su_sectors = su;
                auto arr = make_raizn_array(scale);
                ZonedArrayTarget target(arr.vol.get());
                uint64_t zone_cap = arr.vol->zone_capacity();
                double mibs = 0;
                if (std::string(wl) == "write") {
                    mibs = run_seq(arr.loop.get(), &target,
                                   RwMode::kSeqWrite, bs, zone_cap)
                               .mibs;
                } else {
                    prime_target(arr.loop.get(), &target,
                                 target.capacity());
                    if (std::string(wl) == "seqread") {
                        mibs = run_seq(arr.loop.get(), &target,
                                       RwMode::kSeqRead, bs, zone_cap)
                                   .mibs;
                    } else {
                        mibs = run_rand_read(arr.loop.get(), &target, bs)
                                   .mibs;
                    }
                }
                std::printf(" %9.0f", mibs);
            }
            std::printf("\n");
        }
    }
    std::printf("\nPaper shape: 64 KiB stripe units best everywhere "
                "except 4 KiB sequential reads.\n");
}

int
instrumented_pass(const ObsOptions &oo)
{
    print_header("Instrumented pass: 64 KiB SU, sequential write + "
                 "random read");
    // The instrumented pass always runs with the host profiler on: it
    // is both the CI coverage self-check and the artifact producer for
    // --prof-out / --flame-out.
    prof::enable();
    WorkloadPoint wr, rd;
    BenchObs obs;
    obs.opts = oo;
    uint32_t num_devices = 0;
    // Outlive the metrics export below: the registry holds pointers
    // linked into the volume's stats structs and the ledger's cause
    // aggregates.
    RaiznArray arr;
    obs::IoLedger ledger;
    {
        PROF_SCOPE("bench.fig8.instrumented");
        BenchScale scale;
        scale.su_sectors = 16; // 64 KiB, the paper's default
        arr = make_raizn_array(scale);
        arr.vol->attach_observability(&obs.registry, &obs.trace);
        arr.vol->attach_ledger(&ledger);
        ledger.link_metrics(&obs.registry);
        auto tl = make_timeline(oo, arr.loop.get(), &obs.registry);
        arr.vol->install_timeline(tl.get());
        ledger.install_probe(tl.get());
        tl->start();
        ZonedArrayTarget target(arr.vol.get());
        uint64_t zone_cap = arr.vol->zone_capacity();
        num_devices = arr.vol->num_devices();

        wr = run_seq(arr.loop.get(), &target, RwMode::kSeqWrite, 16,
                     zone_cap);
        rd = run_rand_read(arr.loop.get(), &target, 16);
        finish_timeline(oo, tl.get());
    }
    double prof_cov = prof::coverage();
    finish_prof(oo);
    std::printf("seq write 64K: %.0f MiB/s p50=%.1fus p99.9=%.1fus\n",
                wr.mibs, wr.p50_us, wr.p999_us);
    std::printf("rand read 64K: %.0f MiB/s p50=%.1fus p99.9=%.1fus\n",
                rd.mibs, rd.p50_us, rd.p999_us);

    size_t n = 0;
    double mean = 0;
    double worst = obs.write_coverage("raizn.write", &n, &mean);
    std::printf("\ntrace coverage of write wall time: min=%.1f%% "
                "mean=%.1f%% over %zu sampled writes\n", worst * 100,
                mean * 100, n);
    std::printf("\n-- where do the bytes go? --\n%s",
                ledger.breakdown_table().c_str());
    ledger.refresh_gauges();
    obs.finish(num_devices);

    // Conservation audit: every device byte must be attributed to
    // exactly one cause; an untagged or double-counted sub-IO fails
    // the smoke test here.
    obs::LedgerAudit audit = ledger.audit();
    if (!audit.ok()) {
        std::fprintf(stderr, "FAIL: ledger conservation audit:\n%s",
                     audit.summary().c_str());
        return 1;
    }
    std::printf("ledger conservation audit: ok (waf=%.3f raf=%.3f)\n",
                ledger.waf(), ledger.raf());

    // Self-check for CI: every sampled write must be ≥95% accounted
    // for by its stage spans, else the trace is lying about where
    // time goes.
    if (n == 0 || worst < 0.95) {
        std::fprintf(stderr, "FAIL: write span coverage %.1f%% below "
                             "95%% (n=%zu)\n", worst * 100, n);
        return 1;
    }
    // Same bar for the host profiler: ≥95% of the measured wall time
    // must land in named scopes, else a hot path is uninstrumented.
    if (prof_cov < 0.95) {
        std::fprintf(stderr, "FAIL: host profile scope coverage %.1f%% "
                             "below 95%%\n", prof_cov * 100);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsOptions oo;
    if (!parse_obs_args(argc, argv, &oo))
        return 2;
    if (!oo.smoke)
        full_sweep();
    return instrumented_pass(oo);
}
