/**
 * @file
 * Crash-point exploration suite: exhaustively enumerates power-cut
 * injection points for small workloads and checks the full §5
 * invariant set against the shadow model at every one — plus a
 * regression proving the oracle catches a deliberately broken
 * crash-consistency mechanism.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "chk/explorer.h"

namespace raizn::chk {
namespace {

TEST(ChkExplorer, DeterministicReplay)
{
    ChkConfig cfg;
    ChkWorkload wl = canonical_workload(cfg.geom());
    ChkOptions opts;
    CrashPointExplorer a(cfg, wl, opts);
    CrashPointExplorer b(cfg, wl, opts);
    uint64_t ba = a.count_boundaries();
    uint64_t bb = b.count_boundaries();
    EXPECT_EQ(ba, bb);
    EXPECT_GT(ba, 0u);

    // Replaying the same crash point twice reaches identical schedules
    // (each run_one verifies its trace hash against the reference).
    auto r1 = a.explore_points({ba / 2, ba / 3});
    auto r2 = a.explore_points({ba / 2, ba / 3});
    EXPECT_TRUE(r1.ok()) << r1.summary();
    EXPECT_TRUE(r2.ok()) << r2.summary();
}

TEST(ChkExplorer, ExhaustiveCanonicalDropCache)
{
    ChkConfig cfg;
    ChkWorkload wl = canonical_workload(cfg.geom());
    ChkOptions opts;
    opts.policy = PowerLossSpec::Policy::kDropCache;
    CrashPointExplorer ex(cfg, wl, opts);
    ChkReport rep = ex.explore_all();
    // Acceptance: a >=3-stripe workload on a 5-device array exposes
    // hundreds of distinct completion boundaries.
    EXPECT_GE(rep.boundaries, 200u);
    EXPECT_EQ(rep.runs, rep.boundaries + 1);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(ChkExplorer, ExhaustiveCanonicalKeepAll)
{
    ChkConfig cfg;
    ChkWorkload wl = canonical_workload(cfg.geom());
    ChkOptions opts;
    opts.policy = PowerLossSpec::Policy::kKeepAll;
    CrashPointExplorer ex(cfg, wl, opts);
    ChkReport rep = ex.explore_all();
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(ChkExplorer, ExhaustiveDegradedWorkload)
{
    ChkConfig cfg;
    ChkWorkload wl = degraded_workload(cfg.geom(), 2);
    ChkOptions opts;
    CrashPointExplorer ex(cfg, wl, opts);
    ChkReport rep = ex.explore_all();
    EXPECT_GT(rep.boundaries, 0u);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(ChkExplorer, SweepRandomSurvival)
{
    ChkConfig cfg;
    ChkWorkload wl = canonical_workload(cfg.geom());
    ChkOptions opts;
    opts.policy = PowerLossSpec::Policy::kRandom;
    opts.check_degraded = true;
    CrashPointExplorer ex(cfg, wl, opts);
    ChkReport rep = ex.sweep_random(40, /*seed=*/7);
    EXPECT_EQ(rep.runs, 40u);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(ChkExplorer, SweepDivergentDeviceSurvival)
{
    // §5.1: partial parity only matters when devices diverge — here
    // device 0 loses its volatile cache while the others keep theirs.
    ChkConfig cfg;
    ChkWorkload wl = canonical_workload(cfg.geom());
    ChkOptions opts;
    opts.divergent_loss = true;
    CrashPointExplorer ex(cfg, wl, opts);
    ChkReport rep = ex.sweep_random(60, /*seed=*/11);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(ChkExplorer, RandomWorkloadSweep)
{
    ChkConfig cfg;
    for (uint64_t seed : {1ull, 2ull}) {
        ChkWorkload wl = random_workload(cfg.geom(), seed, 12);
        ChkOptions opts;
        CrashPointExplorer ex(cfg, wl, opts);
        ChkReport rep = ex.sweep_random(25, seed);
        EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.summary();
    }
}

// Regression: a deliberately introduced bug — skipping the durable
// partial-parity log append (§5.1) — must be caught by the oracle.
// The bug only bites when the array is already degraded: a FUA
// partial-stripe write acks (raising the durable floor), the power
// cut drops the cached data, and without a durable partial parity the
// degraded mount cannot reconstruct the failed device's unit, rolling
// the zone below its floor.
TEST(ChkOracle, CatchesSkippedPartialParityLog)
{
    ChkConfig cfg;
    ChkWorkload wl = degraded_workload(cfg.geom(), 1);

    ChkOptions broken;
    broken.fault = RaiznVolume::DebugFault::kSkipPartialParityLog;
    CrashPointExplorer bad(cfg, wl, broken);
    ChkReport rep = bad.explore_all();
    EXPECT_FALSE(rep.ok())
        << "oracle failed to catch the skipped partial-parity log";

    // The same workload with the mechanism intact is violation-free,
    // so the failures above are attributable to the injected bug.
    ChkOptions intact;
    CrashPointExplorer good(cfg, wl, intact);
    ChkReport clean = good.explore_all();
    EXPECT_TRUE(clean.ok()) << clean.summary();
}

// The triage bundle of a failing point: the skipped-partial-parity
// repro above, explored with an obs dir, leaves one point_<N>/ per
// failing crash point holding the pre-cut session's artifacts, and
// nothing for points that pass.
TEST(ChkOracle, FailingPointsWriteTheTriageBundle)
{
    const std::string dir = testing::TempDir() + "chk_bundle";
    std::filesystem::remove_all(dir);
    ChkConfig cfg;
    ChkOptions opts;
    opts.fault = RaiznVolume::DebugFault::kSkipPartialParityLog;
    opts.check_degraded = true;
    opts.obs_dir = dir;
    CrashPointExplorer ex(cfg, degraded_workload(cfg.geom(), 1), opts);
    ChkReport rep = ex.explore_all();
    ASSERT_FALSE(rep.ok());

    std::set<uint64_t> failing;
    for (const ChkFailure &f : rep.failures)
        failing.insert(f.crash_point);
    for (uint64_t n = 0; n <= rep.boundaries; ++n) {
        const std::string point = dir + "/point_" + std::to_string(n);
        if (failing.count(n) == 0) {
            EXPECT_FALSE(std::filesystem::exists(point)) << point;
            continue;
        }
        for (const char *f :
             {"trace.json", "metrics.json", "timeline.csv", "ledger.json",
              "prof.json", "flame.folded", "manifest.json"}) {
            EXPECT_TRUE(std::filesystem::exists(point + "/" + f))
                << point << " lacks " << f;
        }
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace raizn::chk
