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
 * device commands), prints the per-stage latency breakdown, and with
 * --obs-dir DIR writes its obs::Session artifacts (metrics registry,
 * Chrome trace, per-interval telemetry CSV, ledger, host profile,
 * manifest) into DIR. --smoke skips the full sweep (ctest obs_smoke
 * budget).
 */
#include <cstdio>

#include "bench_util.h"

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
    // The session's profiler window is always open here: the pass is
    // both the CI coverage self-check and the --obs-dir producer.
    obs::Session session;
    session.start();
    WorkloadPoint wr, rd;
    // Lives until close(), which comes after the top-level scope ends
    // so the profile covers all of it.
    RaiznArray arr;
    {
        PROF_SCOPE("bench.fig8.instrumented");
        BenchScale scale;
        scale.su_sectors = 16; // 64 KiB, the paper's default
        arr = make_raizn_array(scale);
        arr.vol->attach(&session);
        ZonedArrayTarget target(arr.vol.get());
        uint64_t zone_cap = arr.vol->zone_capacity();

        wr = run_seq(arr.loop.get(), &target, RwMode::kSeqWrite, 16,
                     zone_cap);
        rd = run_rand_read(arr.loop.get(), &target, 16);
    }
    session.close();
    std::printf("%s", session.prof_table().c_str());
    std::printf("seq write 64K: %.0f MiB/s p50=%.1fus p99.9=%.1fus\n",
                wr.mibs, wr.p50_us, wr.p999_us);
    std::printf("rand read 64K: %.0f MiB/s p50=%.1fus p99.9=%.1fus\n",
                rd.mibs, rd.p50_us, rd.p999_us);

    obs::SpanCoverage cov = session.span_coverage("raizn.write");
    std::printf("\ntrace coverage of write wall time: min=%.1f%% "
                "mean=%.1f%% over %zu sampled writes\n", cov.min * 100,
                cov.mean * 100, cov.n);
    std::printf("\n-- where do the bytes go? --\n%s",
                session.ledger().breakdown_table().c_str());
    std::printf("\n-- per-stage latency breakdown --\n%s",
                session.trace().stage_breakdown().c_str());
    write_obs(oo, session, "");

    // Conservation audit: every device byte must be attributed to
    // exactly one cause; an untagged or double-counted sub-IO fails
    // the smoke test here.
    if (!session.audit().ok()) {
        std::fprintf(stderr, "FAIL: ledger conservation audit:\n%s",
                     session.audit().summary().c_str());
        return 1;
    }
    std::printf("ledger conservation audit: ok (waf=%.3f raf=%.3f)\n",
                session.ledger().waf(), session.ledger().raf());

    // Self-check for CI: every sampled write must be ≥95% accounted
    // for by its stage spans, else the trace is lying about where
    // time goes.
    if (cov.n == 0 || cov.min < 0.95) {
        std::fprintf(stderr, "FAIL: write span coverage %.1f%% below "
                             "95%% (n=%zu)\n", cov.min * 100, cov.n);
        return 1;
    }
    // Same bar for the host profiler: ≥95% of the measured wall time
    // must land in named scopes, else a hot path is uninstrumented.
    if (session.prof_coverage() < 0.95) {
        std::fprintf(stderr, "FAIL: host profile scope coverage %.1f%% "
                             "below 95%%\n",
                     session.prof_coverage() * 100);
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
