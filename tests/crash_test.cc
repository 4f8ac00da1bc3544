/**
 * @file
 * Crash-consistency tests: power loss at adversarial points, stripe
 * holes (Fig. 1), partial zone resets (§5.2), FUA durability (§5.3),
 * partial parity recovery (§5.1), and randomized power-cut sweeps
 * verifying the ZNS readability invariant end to end.
 */
#include <gtest/gtest.h>

#include "raizn_test_util.h"

namespace raizn {
namespace {

class CrashTest : public ::testing::Test
{
  protected:
    void SetUp() override { arr_.make(); }
    TestArray arr_;
};

PowerLossSpec
drop_all()
{
    return {PowerLossSpec::Policy::kDropCache, 1};
}

TEST_F(CrashTest, UnflushedDataMayVanishButVolumeIsConsistent)
{
    arr_.write_pattern(0, 64, 1);
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    // Nothing was flushed: the zone rolls back to empty.
    auto zi = arr_.vol->zone_info(0).value();
    EXPECT_EQ(zi.wp, 0u);
    // And it is immediately writable again.
    arr_.write_pattern(0, 16, 2);
    arr_.expect_pattern(0, 16, 2);
}

TEST_F(CrashTest, FlushedDataSurvives)
{
    arr_.write_pattern(0, 100, 1);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    arr_.write_pattern(100, 50, 2); // unflushed tail
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    EXPECT_GE(arr_.vol->zone_info(0).value().wp, 100u);
    arr_.expect_pattern(0, 100, 1);
}

TEST_F(CrashTest, FuaWriteSurvivesPowerLoss)
{
    arr_.write_pattern(0, 32, 1); // plain writes
    WriteFlags fua;
    fua.fua = true;
    arr_.write_pattern(32, 8, 2, fua);
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    // The FUA write and *everything before it in the zone* must be
    // readable (§5.3: no stripe hole below a completed FUA write).
    EXPECT_GE(arr_.vol->zone_info(0).value().wp, 40u);
    arr_.expect_pattern(0, 32, 1);
    arr_.expect_pattern(32, 8, 2);
}

TEST_F(CrashTest, PreflushWritePersistsPriorData)
{
    arr_.write_pattern(0, 16, 1);
    arr_.write_pattern(512, 16, 7); // zone 1, unflushed
    WriteFlags pf;
    pf.preflush = true;
    arr_.write_pattern(16, 4, 2, pf);
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    // The preflush persisted zone 1's data as well.
    arr_.expect_pattern(512, 16, 7);
    arr_.expect_pattern(0, 16, 1);
}

TEST_F(CrashTest, PartialStripeWriteRecoveredFromPartialParity)
{
    // Write a partial stripe with FUA so data + partial parity are
    // durable, then lose one device's data sectors (simulated by
    // power loss dropping only what was not FUA'd) — actually verify
    // the partial parity path by failing a device after remount.
    WriteFlags fua;
    fua.fua = true;
    arr_.write_pattern(0, 20, 1, fua); // 1.25 stripe units
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    arr_.expect_pattern(0, 20, 1);
    // Degraded read of the partial stripe reconstructs from the
    // partial parity log.
    uint32_t d0 = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.vol->mark_device_failed(d0);
    arr_.expect_pattern(0, 20, 1);
    EXPECT_GT(arr_.vol->stats().degraded_reads, 0u);
}

TEST_F(CrashTest, ZoneResetLogCompletesPartialReset)
{
    // Fill a zone, flush, then reset — but power off right after the
    // reset WAL is durable and only some devices completed the reset.
    arr_.write_pattern(0, 128, 1);
    ASSERT_TRUE(arr_.flush().status.is_ok());

    // Issue the reset but cut power before its completion callback.
    bool done = false;
    arr_.vol->reset_zone(0, [&](IoResult) { done = true; });
    // Run only a few events: WAL append + some device resets.
    arr_.loop->run_events(6);
    // Manually reset a subset of devices to force the partial state.
    // (The reset may or may not have reached the devices yet.)
    submit_sync(*arr_.loop, *arr_.devs[0], IoRequest::zone_reset(0));
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    (void)done;
    // The zone must be fully reset on every device (reset log replay).
    auto zi = arr_.vol->zone_info(0).value();
    EXPECT_EQ(zi.wp, 0u) << "partial reset must complete on mount";
    for (uint32_t d = 0; d < 5; ++d) {
        auto pz = arr_.devs[d]->zone_info(0);
        EXPECT_EQ(pz.value().written(), 0u) << "device " << d;
    }
    // Zone usable again.
    arr_.write_pattern(0, 16, 9);
    arr_.expect_pattern(0, 16, 9);
}

TEST_F(CrashTest, ResetWithoutLogPersistedKeepsData)
{
    // If power is lost before the reset WAL persists, the zone must
    // retain its original data (the reset never "happened").
    arr_.write_pattern(0, 64, 5);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    arr_.vol->reset_zone(0, [](IoResult) {});
    // Cut power immediately: no events processed after the call, so
    // neither the WAL nor any device reset got through.
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    EXPECT_EQ(arr_.vol->zone_info(0).value().wp, 64u);
    arr_.expect_pattern(0, 64, 5);
}

TEST_F(CrashTest, StripeHoleRepairedInPlace)
{
    // Create a stripe hole: write a full stripe, flush only 4 of 5
    // devices, crash. The missing stripe unit is reconstructable from
    // parity and must be repaired in place at mount.
    arr_.write_pattern(0, 64, 3);
    // Flush devices selectively: drop device d0's cache only.
    uint32_t d0 = arr_.vol->layout().data_dev(0, 0, 0);
    for (uint32_t d = 0; d < 5; ++d) {
        if (d != d0) {
            ASSERT_TRUE(submit_sync(*arr_.loop, *arr_.devs[d],
                                    IoRequest::flush())
                            .status.is_ok());
        }
    }
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    EXPECT_EQ(arr_.vol->zone_info(0).value().wp, 64u);
    arr_.expect_pattern(0, 64, 3);
    EXPECT_GT(arr_.vol->stats().holes_repaired_in_place, 0u);
}

TEST_F(CrashTest, UnrecoverableHoleRollsBackAndRemaps)
{
    // Lose two devices' worth of a stripe (data + its parity/partial
    // parity): the stripe cannot be rebuilt, the logical write pointer
    // must roll back, and later writes must be relocated around the
    // burned sectors.
    arr_.write_pattern(0, 64, 3); // full stripe 0
    ASSERT_TRUE(arr_.flush().status.is_ok()); // stripe 0 durable
    arr_.write_pattern(64, 64, 4); // full stripe 1
    // Persist stripe 1 on SOME devices only: drop the caches of its
    // parity device (losing parity AND the partial parity log) and one
    // of its data devices.
    const Layout &l = arr_.vol->layout();
    uint32_t pdev = l.parity_dev(0, 1);
    uint32_t ddev = l.data_dev(0, 1, 1);
    for (uint32_t d = 0; d < 5; ++d) {
        if (d != pdev && d != ddev) {
            ASSERT_TRUE(submit_sync(*arr_.loop, *arr_.devs[d],
                                    IoRequest::flush())
                            .status.is_ok());
        }
    }
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());

    // Stripe 0 must survive intact; stripe 1 rolled back (partially).
    uint64_t wp = arr_.vol->zone_info(0).value().wp;
    EXPECT_GE(wp, 64u);
    EXPECT_LT(wp, 128u);
    arr_.expect_pattern(0, 64, 3);
    EXPECT_GT(arr_.vol->stats().holes_remapped, 0u);

    // The zone keeps working: writes from the rolled-back wp land in
    // relocated stripe units where the PBAs are burned.
    uint32_t todo = static_cast<uint32_t>(128 - wp);
    arr_.write_pattern(wp, todo, 9);
    arr_.expect_pattern(wp, todo, 9);
    EXPECT_GT(arr_.vol->stats().relocated_writes, 0u);

    // Relocated data survives another clean remount.
    ASSERT_TRUE(arr_.remount().is_ok());
    arr_.expect_pattern(wp, todo, 9);
    arr_.expect_pattern(0, 64, 3);
}

TEST_F(CrashTest, UnrecoverableHoleRemapsThenZoneRebuildFoldsThem)
{
    // The hole of UnrecoverableHoleRollsBackAndRemaps on an array whose
    // relocation threshold is 0: the remount after the relocated writes
    // rebuilds each physical zone holding a relocation (§5.2), folding
    // the relocated units back to their arithmetic positions.
    RaiznConfig cfg = TestArray::array_config();
    cfg.relocation_threshold = 0;
    arr_.make(cfg);
    arr_.write_pattern(0, 64, 3);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    arr_.write_pattern(64, 64, 4);
    const Layout &l = arr_.vol->layout();
    uint32_t pdev = l.parity_dev(0, 1);
    uint32_t ddev = l.data_dev(0, 1, 1);
    for (uint32_t d = 0; d < 5; ++d) {
        if (d != pdev && d != ddev) {
            ASSERT_TRUE(submit_sync(*arr_.loop, *arr_.devs[d],
                                    IoRequest::flush())
                            .status.is_ok());
        }
    }
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    uint64_t wp = arr_.vol->zone_info(0).value().wp;
    ASSERT_GE(wp, 64u);
    ASSERT_LT(wp, 128u);
    EXPECT_EQ(arr_.vol->stats().phys_zone_rebuilds, 0u);
    uint32_t todo = static_cast<uint32_t>(128 - wp);
    arr_.write_pattern(wp, todo, 9);
    EXPECT_GT(arr_.vol->stats().relocated_writes, 0u);

    ASSERT_TRUE(arr_.remount().is_ok());
    EXPECT_GT(arr_.vol->stats().phys_zone_rebuilds, 0u);
    arr_.expect_pattern(0, 64, 3);
    arr_.expect_pattern(wp, todo, 9);

    // The rebuilt zones hold the data in place: one more remount finds
    // nothing left to fold and reads the same bytes.
    ASSERT_TRUE(arr_.remount().is_ok());
    EXPECT_EQ(arr_.vol->stats().phys_zone_rebuilds, 0u);
    arr_.expect_pattern(0, 64, 3);
    arr_.expect_pattern(wp, todo, 9);
}

TEST_F(CrashTest, ReadSplitsExtentWhereARelocationBegins)
{
    // Build a stripe unit whose first half sits at its home PBA and
    // whose second half is relocated, then read it as one extent.
    const Layout &l = arr_.vol->layout();
    const uint32_t y = l.data_dev(0, 0, 1);
    const uint32_t z = l.data_dev(0, 0, 2);
    // Degraded from the start: unit 1's device is gone, so its data
    // lives only in the partial-parity log.
    arr_.devs[y]->fail();
    arr_.vol->mark_device_failed(y);
    arr_.write_pattern(0, 8, 21);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    arr_.write_pattern(8, 28, 22); // rest of unit 0, unit 1, 4 of unit 2
    // Unit 2's device loses its cache; every other device keeps all.
    std::vector<PowerLossSpec> specs(5,
                                     {PowerLossSpec::Policy::kKeepAll, 0});
    specs[z] = {PowerLossSpec::Policy::kDropCache, 0};
    ASSERT_TRUE(arr_.crash_and_remount(specs).is_ok());
    // Units 1 and 2 cannot both be rebuilt, and the second write's
    // partial-parity record straddles the loss: the fill rolls back to
    // that write's start, mid-way through unit 0, whose device still
    // holds the rolled-back sectors behind it.
    ASSERT_EQ(arr_.vol->zone_info(0).value().wp, 8u);
    arr_.write_pattern(8, 8, 23); // burned PBAs: relocated
    EXPECT_EQ(arr_.vol->stats().relocated_writes, 1u);
    std::vector<uint8_t> want = pattern_data(8, 21);
    std::vector<uint8_t> tail = pattern_data(8, 23);
    want.insert(want.end(), tail.begin(), tail.end());
    // Served straight from the home run and the relocation: the stale
    // home copy of the second half never reaches the CRC check.
    const uint64_t degraded = arr_.vol->stats().degraded_reads;
    IoResult r = arr_.read(0, 16);
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.data, want);
    EXPECT_EQ(arr_.vol->stats().crc_mismatches, 0u);
    EXPECT_EQ(arr_.vol->stats().degraded_reads, degraded);
    // After a remount the catalog is empty, so only the split keeps
    // the stale bytes out.
    ASSERT_TRUE(arr_.remount().is_ok());
    r = arr_.read(0, 16);
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.data, want);
}

TEST_F(CrashTest, DivergentDeviceCachesRecoverConsistently)
{
    // Each device survives power loss differently — some keep their
    // volatile cache, some drop it, some keep a random prefix. The
    // volume must still recover to a consistent state where the
    // flushed prefix is intact and readable.
    arr_.write_pattern(0, 64, 1); // stripe 0
    ASSERT_TRUE(arr_.flush().status.is_ok());
    arr_.write_pattern(64, 40, 2); // partial stripe 1, unflushed

    std::vector<PowerLossSpec> specs = {
        {PowerLossSpec::Policy::kDropCache, 1},
        {PowerLossSpec::Policy::kKeepAll, 2},
        {PowerLossSpec::Policy::kRandom, 3},
        {PowerLossSpec::Policy::kKeepAll, 4},
        {PowerLossSpec::Policy::kDropCache, 5},
    };
    ASSERT_TRUE(arr_.crash_and_remount(specs).is_ok());
    auto zi = arr_.vol->zone_info(0).value();
    uint64_t fill = zi.wp - zi.start;
    EXPECT_GE(fill, 64u) << "flushed stripe must survive divergence";
    arr_.expect_pattern(0, 64, 1);
    // Whatever survived of the unflushed tail must read back exactly.
    if (fill > 64) {
        auto r = arr_.read(64, static_cast<uint32_t>(fill - 64));
        ASSERT_TRUE(r.status.is_ok());
        auto want = pattern_data(40, 2);
        want.resize(r.data.size());
        EXPECT_EQ(r.data, want);
    }
    // And the zone accepts new writes at the recovered wp.
    arr_.write_pattern(zi.start + fill, 8, 7);
    arr_.expect_pattern(zi.start + fill, 8, 7);
}

TEST_F(CrashTest, TornWriteLowerLbasReadable)
{
    // A torn multi-sector write: lower-order LBAs remain readable
    // while the tail is rolled back (§5.2).
    arr_.write_pattern(0, 16, 1);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    arr_.write_pattern(16, 16, 2); // torn by the crash
    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kRandom, 42})
            .is_ok());
    uint64_t wp = arr_.vol->zone_info(0).value().wp;
    EXPECT_GE(wp, 16u);
    arr_.expect_pattern(0, 16, 1);
    if (wp > 16) {
        // Whatever survived of the second write is its prefix.
        auto r = arr_.read(16, static_cast<uint32_t>(wp - 16));
        ASSERT_TRUE(r.status.is_ok());
        auto full = pattern_data(16, 2);
        full.resize(r.data.size());
        EXPECT_EQ(r.data, full);
    }
}

TEST_F(CrashTest, GenerationCountersInvalidateStaleMetadata)
{
    // Partial parity logged for generation 0 of zone 0 must not be
    // applied after the zone is reset (generation 1) and rewritten.
    arr_.write_pattern(0, 8, 1); // logs partial parity, gen 0
    ASSERT_TRUE(arr_.flush().status.is_ok());
    ASSERT_TRUE(arr_.reset_zone(0).status.is_ok());
    arr_.write_pattern(0, 8, 2); // gen 1 data
    ASSERT_TRUE(arr_.flush().status.is_ok());
    ASSERT_TRUE(arr_.crash_and_remount(drop_all()).is_ok());
    arr_.expect_pattern(0, 8, 2);
    // Degraded read reconstructs using only generation-1 parity.
    arr_.vol->mark_device_failed(arr_.vol->layout().data_dev(0, 0, 0));
    arr_.expect_pattern(0, 8, 2);
}

TEST_F(CrashTest, RepeatedCrashesStayConsistent)
{
    // Crash -> remount -> write -> crash ... several times; flushed
    // data must always survive at its recorded location, and the
    // volume must stay mountable.
    struct Piece {
        uint64_t lba;
        uint32_t n;
        uint64_t pattern;
    };
    std::vector<Piece> flushed;
    for (int round = 0; round < 5; ++round) {
        uint64_t wp = arr_.vol->zone_info(0).value().wp;
        uint32_t n = 12 + static_cast<uint32_t>(round) * 4;
        if (wp + n + 4 > arr_.vol->zone_capacity())
            break;
        uint64_t pattern = 1000 + static_cast<uint64_t>(round);
        arr_.write_pattern(wp, n, pattern);
        ASSERT_TRUE(arr_.flush().status.is_ok());
        flushed.push_back({wp, n, pattern});
        // Unflushed filler that may be torn by the crash.
        arr_.write_pattern(wp + n, 4, 999);
        ASSERT_TRUE(
            arr_.crash_and_remount(
                    {PowerLossSpec::Policy::kRandom,
                     static_cast<uint64_t>(round) + 10})
                .is_ok());
        EXPECT_GE(arr_.vol->zone_info(0).value().wp, wp + n);
        for (const Piece &p : flushed)
            arr_.expect_pattern(p.lba, p.n, p.pattern);
    }
    EXPECT_GE(flushed.size(), 3u);
}

TEST_F(CrashTest, RandomizedPowerCutSweep)
{
    // Property test: for many seeds, write a random workload with
    // occasional flushes, cut power randomly, remount, and check the
    // ZNS invariant: every sector below each zone's write pointer is
    // readable and matches the last acknowledged write, and all
    // flushed data survives.
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        TestArray arr;
        arr.make();
        Rng rng(seed);
        // Track what we wrote: per zone, list of (offset, len, seed).
        struct Piece {
            uint64_t lba;
            uint32_t n;
            uint64_t pattern;
        };
        std::vector<Piece> pieces;
        uint64_t flushed_upto = 0; // wp of zone 0 at last flush
        uint64_t wp = 0;
        uint64_t cap = arr.vol->zone_capacity();
        int ops = 3 + static_cast<int>(rng.next_below(12));
        for (int i = 0; i < ops && wp < cap; ++i) {
            uint32_t n = static_cast<uint32_t>(rng.next_range(1, 40));
            n = static_cast<uint32_t>(
                std::min<uint64_t>(n, cap - wp));
            uint64_t pat = seed * 1000 + static_cast<uint64_t>(i);
            arr.write_pattern(wp, n, pat);
            pieces.push_back({wp, n, pat});
            wp += n;
            if (rng.next_bool(0.3)) {
                ASSERT_TRUE(arr.flush().status.is_ok());
                flushed_upto = wp;
            }
        }
        ASSERT_TRUE(arr.crash_and_remount(
                           {PowerLossSpec::Policy::kRandom, seed * 7})
                        .is_ok())
            << "seed " << seed;
        uint64_t new_wp = arr.vol->zone_info(0).value().wp;
        EXPECT_GE(new_wp, flushed_upto) << "flushed data lost, seed "
                                        << seed;
        // Every sector below the new wp matches what was written.
        for (const Piece &p : pieces) {
            if (p.lba >= new_wp)
                break;
            uint32_t n = static_cast<uint32_t>(
                std::min<uint64_t>(p.n, new_wp - p.lba));
            auto r = arr.read(p.lba, n);
            ASSERT_TRUE(r.status.is_ok())
                << "seed " << seed << " lba " << p.lba;
            auto expect = pattern_data(p.n, p.pattern);
            expect.resize(static_cast<size_t>(n) * kSectorSize);
            EXPECT_EQ(r.data, expect)
                << "seed " << seed << " lba " << p.lba;
        }
        // The volume accepts new writes at the recovered wp.
        if (new_wp < cap) {
            uint32_t n = static_cast<uint32_t>(
                std::min<uint64_t>(8, cap - new_wp));
            arr.write_pattern(new_wp, n, 424242);
            arr.expect_pattern(new_wp, n, 424242);
        }
    }
}

} // namespace
} // namespace raizn
