/**
 * @file
 * Failure-lifecycle tests: health-driven automatic failover onto a hot
 * spare, crash-resumable checkpointed rebuild, token-bucket rebuild
 * throttling, the mdraid auto-resync path, and one suite over
 * ZonedArray& that holds RAIZN, mdraid and ZonedEngine to the same
 * base-owned lifecycle contract.
 */
#include <gtest/gtest.h>

#include "array/engine.h"
#include "fault/fault_device.h"
#include "mdraid/md_volume.h"
#include "raizn_test_util.h"
#include "zns/conv_device.h"

namespace raizn {
namespace {

class LifecycleTest : public ::testing::Test
{
  protected:
    void SetUp() override { arr_.make(); }

    /// A standby device with the same geometry as the array members.
    std::unique_ptr<ZnsDevice>
    make_spare()
    {
        ZnsDeviceConfig dc = TestArray::device_config();
        dc.name = "spare";
        return std::make_unique<ZnsDevice>(arr_.loop.get(), dc);
    }

    TestArray arr_;
};

TEST_F(LifecycleTest, AutoFailoverPromotesSpareAndRebuilds)
{
    arr_.write_pattern(0, 128, 1);
    arr_.write_pattern(512, 64, 2);
    ASSERT_TRUE(arr_.flush().status.is_ok());

    auto spare = make_spare();
    arr_.vol->set_spare(spare.get());
    bool done = false;
    Status st;
    uint32_t done_dev = ~0u;
    RaiznVolume::LifecycleConfig lc;
    lc.on_rebuild_done = [&](uint32_t dev, Status s) {
        done_dev = dev;
        st = s;
        done = true;
    };
    arr_.vol->set_lifecycle(std::move(lc));

    // The device dies at the device level; nobody tells the volume.
    // The next read hits persistent errors, the health monitor trips,
    // and failover + spare promotion + rebuild run with zero manual
    // calls — data stays readable the whole time.
    uint32_t victim = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.devs[victim]->fail();
    arr_.expect_pattern(0, 128, 1);
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    EXPECT_EQ(arr_.vol->stats().auto_failovers, 1u);

    // Mid-lifecycle reads are served (degraded or from rebuilt zones).
    arr_.expect_pattern(512, 64, 2);

    arr_.loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(done_dev, victim);
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    EXPECT_EQ(arr_.vol->stats().spares_promoted, 1u);
    EXPECT_FALSE(arr_.vol->has_spare()) << "spare consumed";
    EXPECT_GT(arr_.vol->stats().zones_rebuilt, 0u);

    // Redundancy restored onto the spare: reads need no reconstruction.
    uint64_t degraded_before = arr_.vol->stats().degraded_reads;
    arr_.expect_pattern(0, 128, 1);
    arr_.expect_pattern(512, 64, 2);
    EXPECT_EQ(arr_.vol->stats().degraded_reads, degraded_before);

    // And survives a second, different failure.
    arr_.vol->mark_device_failed((victim + 1) % 5);
    arr_.expect_pattern(0, 128, 1);
}

TEST_F(LifecycleTest, NoSpareStaysDegraded)
{
    arr_.write_pattern(0, 64, 3);
    uint32_t victim = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.devs[victim]->fail();
    arr_.expect_pattern(0, 64, 3);
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    // Nothing to promote: stays degraded, no failover counted.
    arr_.loop->run();
    EXPECT_EQ(arr_.vol->stats().auto_failovers, 0u);
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    arr_.expect_pattern(0, 64, 3);
}

TEST_F(LifecycleTest, HealthCountersSurfaceInStats)
{
    arr_.write_pattern(0, 64, 4);
    uint32_t victim = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.devs[victim]->fail();
    arr_.expect_pattern(0, 64, 4);
    const DeviceHealth &h = arr_.vol->health().device(victim);
    EXPECT_GT(h.op_failures, 0u);
    std::string dump = arr_.vol->stats().dump();
    EXPECT_NE(dump.find("auto_failovers"), std::string::npos);
    EXPECT_NE(dump.find("rebuild_checkpoints"), std::string::npos);
}

TEST_F(LifecycleTest, CheckpointResumeAfterPowerCut)
{
    // Three zones of data so the rebuild spans several checkpoints.
    arr_.write_pattern(0, 512, 5);
    arr_.write_pattern(512, 512, 6);
    arr_.write_pattern(1024, 512, 7);
    ASSERT_TRUE(arr_.flush().status.is_ok());

    uint32_t victim = 1;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();

    uint64_t zones_done = 0;
    bool done = false;
    Status st;
    arr_.vol->rebuild_device(
        victim, [&](uint64_t d, uint64_t) { zones_done = d; },
        [&](Status s) {
            st = s;
            done = true;
        });
    // Let two of three zones finish: the first zone's completion
    // checkpoint had a full zone's worth of rebuild IO to become
    // durable before the cut.
    arr_.loop->run_until_pred([&] { return zones_done >= 2 || done; });
    ASSERT_FALSE(done) << "rebuild finished before the cut";
    EXPECT_GT(arr_.vol->stats().rebuild_checkpoints, 1u);

    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kDropCache, 11})
            .is_ok());
    ASSERT_TRUE(arr_.vol->has_pending_rebuild());
    EXPECT_EQ(arr_.vol->pending_rebuild_device(),
              static_cast<int>(victim));
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));

    bool rdone = false;
    Status rst;
    arr_.vol->resume_rebuild(nullptr, [&](Status s) {
        rst = s;
        rdone = true;
    });
    arr_.loop->run_until_pred([&] { return rdone; });
    ASSERT_TRUE(rst.is_ok()) << rst.to_string();
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    EXPECT_GE(arr_.vol->stats().rebuild_zones_resumed, 1u)
        << "resume re-rebuilt everything instead of using the checkpoint";

    arr_.expect_pattern(0, 512, 5);
    arr_.expect_pattern(512, 512, 6);
    arr_.expect_pattern(1024, 512, 7);

    // Redundancy is fully restored: lose a different device and read.
    arr_.vol->mark_device_failed((victim + 2) % 5);
    arr_.expect_pattern(0, 512, 5);
    arr_.expect_pattern(1024, 512, 7);
}

TEST_F(LifecycleTest, ResumeRebuildWithoutCheckpointIsRejected)
{
    bool done = false;
    Status st;
    arr_.vol->resume_rebuild(nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    arr_.loop->run_until_pred([&] { return done; });
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(LifecycleTest, BlankReplacementDetectedAtMount)
{
    // Power fails after the dead disk was swapped but before the
    // rebuild's first checkpoint became durable: the replacement
    // carries no superblock, and mount must treat it as the absent
    // device rather than trusting its empty zones.
    arr_.write_pattern(0, 256, 8);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    uint32_t victim = 3;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();
    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kDropCache, 13})
            .is_ok());
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    EXPECT_FALSE(arr_.vol->has_pending_rebuild());
    arr_.expect_pattern(0, 256, 8);
    // A from-scratch rebuild completes and heals the array.
    ASSERT_TRUE(arr_.rebuild(victim).is_ok());
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    arr_.expect_pattern(0, 256, 8);
}

TEST_F(LifecycleTest, FailedRebuildResumesAfterRemount)
{
    // The replacement dies mid-rebuild. The member stays failed, no
    // "done" checkpoint is written, and once it is replaced again a
    // remount finds the in-progress checkpoint and resumes.
    arr_.write_pattern(0, 512, 14);
    arr_.write_pattern(512, 256, 15);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    const uint32_t victim = 1;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();
    bool done = false;
    Status st;
    arr_.vol->rebuild_device(victim, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    const Tick t0 = arr_.loop->now();
    arr_.loop->run_until_pred(
        [&] { return done || arr_.loop->now() >= t0 + 20 * kNsPerUs; });
    ASSERT_FALSE(done) << "rebuild finished before the target died";
    arr_.devs[victim]->fail();
    arr_.loop->run_until_pred([&] { return done; });
    EXPECT_EQ(st.code(), StatusCode::kOffline) << st.to_string();
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    EXPECT_TRUE(arr_.vol->degraded());
    arr_.expect_pattern(0, 512, 14);

    arr_.devs[victim]->replace();
    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kKeepAll, 0}).is_ok());
    ASSERT_TRUE(arr_.vol->has_pending_rebuild());
    EXPECT_EQ(arr_.vol->pending_rebuild_device(), static_cast<int>(victim));
    bool rdone = false;
    Status rst;
    arr_.vol->resume_rebuild(nullptr, [&](Status s) {
        rst = s;
        rdone = true;
    });
    arr_.loop->run_until_pred([&] { return rdone; });
    ASSERT_TRUE(rst.is_ok()) << rst.to_string();
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    arr_.expect_pattern(0, 512, 14);
    arr_.expect_pattern(512, 256, 15);
}

TEST_F(LifecycleTest, FlushDuringRebuildReachesTheTarget)
{
    // An empty zone needs no rebuild, so its writes land on the target
    // at once; a flush acked during the rebuild must make them durable
    // there too, or a power cut after the rebuild drops the target's
    // unit and the remount finds a stripe hole to repair from parity.
    arr_.write_pattern(0, 512, 16);
    arr_.write_pattern(512, 512, 17);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    const uint32_t victim = 1;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();
    RaiznVolume::LifecycleConfig lc;
    lc.auto_rebuild = false;
    lc.throttle.rate_sectors_per_sec = 100000;
    lc.throttle.burst_sectors = 32;
    arr_.vol->set_lifecycle(lc);
    bool done = false;
    Status st;
    arr_.vol->rebuild_device(victim, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    const uint64_t empty_zone = 3 * 512;
    arr_.write_pattern(empty_zone, 64, 18);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    ASSERT_FALSE(done) << "rebuild finished before the flush";
    arr_.loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(arr_.vol->failed_device(), -1);

    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kDropCache, 19})
            .is_ok());
    EXPECT_LT(arr_.vol->failed_device(), 0);
    EXPECT_EQ(arr_.vol->stats().holes_repaired_in_place, 0u);
    EXPECT_EQ(arr_.vol->stats().holes_remapped, 0u);
    arr_.expect_pattern(empty_zone, 64, 18);
    arr_.expect_pattern(0, 512, 16);
}

TEST_F(LifecycleTest, PowerCutAtRebuildDoneKeepsTheMemberRebuilt)
{
    // A rebuild reports success only once its "done" checkpoint is
    // durable on every survivor, so a power cut the moment it fires
    // (no loop drain) remounts with the member rebuilt and nothing to
    // resume.
    arr_.write_pattern(0, 512, 21);
    arr_.write_pattern(512, 256, 22);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    const uint32_t victim = 1;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();
    bool done = false;
    Status st;
    arr_.vol->rebuild_device(victim, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    arr_.loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();

    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kDropCache, 23})
            .is_ok());
    EXPECT_LT(arr_.vol->failed_device(), 0);
    EXPECT_FALSE(arr_.vol->has_pending_rebuild());
    arr_.expect_pattern(0, 512, 21);
    arr_.expect_pattern(512, 256, 22);
}

TEST_F(LifecycleTest, ThrottleTokenBucket)
{
    EventLoop loop;
    RebuildThrottleConfig cfg;
    cfg.rate_sectors_per_sec = 1000;
    cfg.burst_sectors = 64;
    RebuildThrottle th(&loop, cfg);

    EXPECT_TRUE(th.try_acquire(64)); // full burst available
    EXPECT_FALSE(th.try_acquire(1)); // bucket empty
    EXPECT_EQ(th.stalls(), 1u);
    uint64_t wait = th.ns_until(10);
    EXPECT_GT(wait, 0u);
    EXPECT_LE(wait, 10 * kNsPerMs + 1);

    // Refill against virtual time: after 20ms, 20 tokens accrued.
    loop.schedule_after(20 * kNsPerMs, [] {});
    loop.run();
    EXPECT_TRUE(th.try_acquire(10));
    EXPECT_FALSE(th.try_acquire(64));
}

TEST_F(LifecycleTest, ThrottledRebuildStallsAndTakesLonger)
{
    auto run_rebuild = [](uint64_t rate) {
        TestArray a;
        a.make();
        a.write_pattern(0, 512, 9);
        a.write_pattern(512, 512, 10);
        EXPECT_TRUE(a.flush().status.is_ok());
        uint32_t victim = 2;
        a.vol->mark_device_failed(victim);
        a.devs[victim]->replace();
        RaiznVolume::LifecycleConfig lc;
        lc.throttle.rate_sectors_per_sec = rate;
        lc.throttle.burst_sectors = 32;
        a.vol->set_lifecycle(lc);
        Tick start = a.loop->now();
        Status st = a.rebuild(victim);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        struct Out {
            Tick elapsed;
            uint64_t stalls;
        };
        return Out{a.loop->now() - start,
                   a.vol->stats().rebuild_throttle_stalls};
    };
    auto fast = run_rebuild(0);
    auto slow = run_rebuild(10000);
    EXPECT_EQ(fast.stalls, 0u);
    EXPECT_GT(slow.stalls, 0u);
    EXPECT_GT(slow.elapsed, fast.elapsed);
}

TEST_F(LifecycleTest, MdVolumeAutoResyncPromotesSpare)
{
    EventLoop loop;
    std::vector<std::unique_ptr<ConvDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    auto conv_cfg = [](const std::string &name) {
        ConvDeviceConfig cfg;
        cfg.nsectors = 4 * kMiB / kSectorSize;
        cfg.pages_per_block = 64;
        cfg.name = name;
        return cfg;
    };
    for (int i = 0; i < 5; ++i) {
        devs.push_back(std::make_unique<ConvDevice>(
            &loop, conv_cfg("conv" + std::to_string(i))));
        ptrs.push_back(devs.back().get());
    }
    auto spare =
        std::make_unique<ConvDevice>(&loop, conv_cfg("spare"));
    MdVolumeConfig mcfg;
    mcfg.chunk_sectors = 16;
    mcfg.stripe_cache_bytes = 128 * kKiB;
    MdVolume vol(&loop, ptrs, mcfg);
    vol.set_spare(spare.get());
    bool done = false;
    Status st;
    MdVolume::LifecycleConfig lc;
    lc.throttle.rate_sectors_per_sec = 0;
    lc.on_rebuild_done = [&](uint32_t, Status s) {
        st = s;
        done = true;
    };
    vol.set_lifecycle(std::move(lc));

    bool wdone = false;
    vol.write(0, pattern_data(64, 21), {}, [&](IoResult r) {
        EXPECT_TRUE(r.status.is_ok());
        wdone = true;
    });
    loop.run_until_pred([&] { return wdone; });

    vol.mark_device_failed(0);
    EXPECT_EQ(vol.stats().auto_failovers, 1u);
    loop.run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(vol.failed_device(), -1);
    EXPECT_EQ(vol.stats().spares_promoted, 1u);
    EXPECT_FALSE(vol.has_spare());
    EXPECT_GT(vol.stats().resynced_sectors, 0u);

    bool rdone = false;
    vol.read(0, 64, [&](IoResult r) {
        EXPECT_TRUE(r.status.is_ok());
        EXPECT_EQ(r.data, pattern_data(64, 21));
        rdone = true;
    });
    loop.run_until_pred([&] { return rdone; });
}

TEST_F(LifecycleTest, MdVolumeThrottledResyncStalls)
{
    EventLoop loop;
    std::vector<std::unique_ptr<ConvDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    for (int i = 0; i < 5; ++i) {
        ConvDeviceConfig cfg;
        cfg.nsectors = 2 * kMiB / kSectorSize;
        cfg.pages_per_block = 64;
        cfg.name = "conv" + std::to_string(i);
        devs.push_back(std::make_unique<ConvDevice>(&loop, cfg));
        ptrs.push_back(devs.back().get());
    }
    MdVolumeConfig mcfg;
    mcfg.chunk_sectors = 16;
    MdVolume vol(&loop, ptrs, mcfg);
    MdVolume::LifecycleConfig lc;
    lc.auto_rebuild = false;
    lc.throttle.rate_sectors_per_sec = 100000;
    lc.throttle.burst_sectors = 64;
    vol.set_lifecycle(std::move(lc));

    vol.mark_device_failed(0);
    devs[0]->replace();
    bool done = false;
    Status st;
    vol.rebuild_device(0, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    loop.run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(vol.failed_device(), -1);
    EXPECT_GT(vol.stats().resync_throttle_stalls, 0u);
}

// ---------------------------------------------------------------------
// One lifecycle contract for every engine, driven through ZonedArray&.
// ---------------------------------------------------------------------

enum class Engine { kRaizn, kMdraid, kRaid5 };

/// A data-storing array of one engine family whose member kVictim
/// fails every read, and the counters the shared lifecycle maintains
/// in the engine's stats.
struct AnyArray {
    static constexpr uint32_t kVictim = 1;

    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<BlockDevice>> devs;
    std::unique_ptr<FaultInjectingDevice> victim;
    std::unique_ptr<ZonedArray> arr;
    uint64_t victim_lba = 0; ///< a sector stored on kVictim
    const uint64_t *auto_failovers = nullptr;
    const uint64_t *spares_promoted = nullptr;
    const uint64_t *throttle_stalls = nullptr;

    /// A blank device shaped like the members; `mismatched` changes
    /// its geometry so it cannot stand in for one.
    std::unique_ptr<BlockDevice>
    make_device(Engine e, const std::string &name, bool mismatched) const
    {
        if (e == Engine::kMdraid) {
            ConvDeviceConfig cfg;
            cfg.nsectors = (mismatched ? 1 : 2) * kMiB / kSectorSize;
            cfg.pages_per_block = 64;
            cfg.name = name;
            return std::make_unique<ConvDevice>(loop.get(), cfg);
        }
        ZnsDeviceConfig dc = e == Engine::kRaizn
            ? TestArray::device_config()
            : TestArray::device_config(7, 64);
        if (mismatched)
            dc.nzones++;
        dc.name = name;
        return std::make_unique<ZnsDevice>(loop.get(), dc);
    }

    void
    make(Engine e)
    {
        loop = std::make_unique<EventLoop>();
        const uint32_t ndev = e == Engine::kRaid5 ? 4 : 5;
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < ndev; ++i) {
            devs.push_back(make_device(e, "d" + std::to_string(i), false));
            ptrs.push_back(devs.back().get());
        }
        FaultConfig fc;
        fc.read_error_rate = 1.0;
        victim = std::make_unique<FaultInjectingDevice>(
            loop.get(), devs[kVictim].get(), fc);
        ptrs[kVictim] = victim.get();
        switch (e) {
        case Engine::kRaizn: {
            auto res = RaiznVolume::create(loop.get(), ptrs,
                                           TestArray::array_config());
            ASSERT_TRUE(res.is_ok()) << res.status().to_string();
            auto vol = std::move(res).value();
            for (uint32_t k = 0; k < 4; ++k)
                if (vol->layout().data_dev(0, 0, k) == kVictim)
                    victim_lba = k * TestArray::array_config().su_sectors;
            auto_failovers = &vol->stats().auto_failovers;
            spares_promoted = &vol->stats().spares_promoted;
            throttle_stalls = &vol->stats().rebuild_throttle_stalls;
            arr = std::move(vol);
            break;
        }
        case Engine::kMdraid: {
            MdVolumeConfig mcfg;
            mcfg.chunk_sectors = 16;
            mcfg.stripe_cache_bytes = 128 * kKiB;
            auto vol = std::make_unique<MdVolume>(loop.get(), ptrs, mcfg);
            victim_lba = static_cast<uint64_t>(vol->data_pos_of_dev(0, kVictim)) *
                mcfg.chunk_sectors;
            auto_failovers = &vol->stats().auto_failovers;
            spares_promoted = &vol->stats().spares_promoted;
            throttle_stalls = &vol->stats().resync_throttle_stalls;
            arr = std::move(vol);
            break;
        }
        case Engine::kRaid5: {
            EngineConfig ecfg;
            ecfg.mode = RaidMode::kRaid5;
            ecfg.su_sectors = 4;
            auto res = ZonedEngine::create(loop.get(), ptrs, ecfg);
            ASSERT_TRUE(res.is_ok()) << res.status().to_string();
            auto eng = std::move(res).value();
            for (uint32_t u = 0; u < eng->data_units(0); ++u)
                if (eng->chunk_dev(0, 0, u) == kVictim)
                    victim_lba = u * ecfg.su_sectors;
            auto_failovers = &eng->stats().auto_failovers;
            spares_promoted = &eng->stats().spares_promoted;
            throttle_stalls = &eng->stats().rebuild_throttle_stalls;
            arr = std::move(eng);
            break;
        }
        }
    }

    void
    write(uint64_t lba, uint32_t nsectors, uint64_t seed)
    {
        bool done = false;
        arr->write(lba, pattern_data(nsectors, seed), {},
                   [&](IoResult r) {
                       EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
                       done = true;
                   });
        loop->run_until_pred([&] { return done; });
    }

    IoResult
    read(uint64_t lba, uint32_t nsectors)
    {
        IoResult out;
        bool done = false;
        arr->read(lba, nsectors, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }
};

class LifecycleContract : public ::testing::TestWithParam<Engine>
{
  protected:
    static constexpr uint32_t kVictim = AnyArray::kVictim;
    /// Whole md stripes: a partial one would preread from kVictim
    /// while the array is being filled.
    static constexpr uint32_t kSectors = 128;

    void SetUp() override { fill(a_); }

    /// Builds `a` for this engine holding kSectors of pattern 31.
    void
    fill(AnyArray &a)
    {
        a.make(GetParam());
        a.write(0, kSectors, 31);
        bool done = false;
        a.arr->flush([&](IoResult) { done = true; });
        a.loop->run_until_pred([&] { return done; });
    }

    /// One sector read served by kVictim alone: its errors exhaust the
    /// retries, the health monitor fails the member, and the read is
    /// reconstructed from the survivors.
    void
    read_through_failing_member()
    {
        IoResult r = a_.read(a_.victim_lba, 1);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        std::vector<uint8_t> want = pattern_data(kSectors, 31);
        want.erase(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(
                                                   a_.victim_lba * kSectorSize));
        want.resize(kSectorSize);
        EXPECT_EQ(r.data, want);
    }

    void
    expect_data_intact()
    {
        IoResult r = a_.read(0, kSectors);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        EXPECT_EQ(r.data, pattern_data(kSectors, 31));
    }

    AnyArray a_;
};

TEST_P(LifecycleContract, HealthDrivenFailurePromotesSpareOnce)
{
    auto spare = a_.make_device(GetParam(), "spare", false);
    a_.arr->set_spare(spare.get());
    int calls = 0;
    Status st;
    ZonedArray::LifecycleConfig lc;
    lc.on_rebuild_done = [&](uint32_t dev, Status s) {
        EXPECT_EQ(dev, kVictim);
        st = s;
        ++calls;
    };
    a_.arr->set_lifecycle(std::move(lc));

    read_through_failing_member();
    a_.loop->run();
    EXPECT_EQ(calls, 1);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(*a_.auto_failovers, 1u);
    EXPECT_EQ(*a_.spares_promoted, 1u);
    EXPECT_FALSE(a_.arr->has_spare());
    EXPECT_FALSE(a_.arr->degraded())
        << "failed member " << a_.arr->failed_device();
    EXPECT_EQ(a_.arr->device(kVictim), spare.get());
    expect_data_intact();
}

TEST_P(LifecycleContract, MismatchedSpareLeavesArrayDegraded)
{
    auto spare = a_.make_device(GetParam(), "spare", true);
    a_.arr->set_spare(spare.get());
    bool fired = false;
    ZonedArray::LifecycleConfig lc;
    lc.on_rebuild_done = [&](uint32_t, Status) { fired = true; };
    a_.arr->set_lifecycle(std::move(lc));

    read_through_failing_member();
    a_.loop->run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(*a_.auto_failovers, 0u);
    EXPECT_EQ(*a_.spares_promoted, 0u);
    EXPECT_TRUE(a_.arr->has_spare()) << "unusable spare was consumed";
    EXPECT_EQ(a_.arr->failed_device(), static_cast<int>(kVictim));
    expect_data_intact();
}

TEST_P(LifecycleContract, ThrottledAutoRebuildStallsAndFinishes)
{
    auto spare = a_.make_device(GetParam(), "spare", false);
    a_.arr->set_spare(spare.get());
    int calls = 0;
    Status st;
    ZonedArray::LifecycleConfig lc;
    lc.throttle.rate_sectors_per_sec = 10000;
    lc.throttle.burst_sectors = 16;
    lc.on_rebuild_done = [&](uint32_t, Status s) {
        st = s;
        ++calls;
    };
    a_.arr->set_lifecycle(std::move(lc));

    read_through_failing_member();
    a_.loop->run();
    EXPECT_EQ(calls, 1);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_GT(*a_.throttle_stalls, 0u) << "rebuild was not throttled";
    EXPECT_FALSE(a_.arr->degraded());
    expect_data_intact();
}

TEST_P(LifecycleContract, LateReadErrorsSpareThePromotedMember)
{
    // Several multi-chunk reads queue chunks on the failing member at
    // once. The first failed read fails it and the spare takes its
    // slot while the rest are still in flight; their late errors come
    // from the replaced device and must not fail the spare. The member
    // either fails every read (retried errors, judged by the health
    // monitor) or is dead (failed on sight).
    for (bool dead : {false, true}) {
        SCOPED_TRACE(dead ? "dead member" : "failing reads");
        AnyArray a;
        fill(a);
        if (dead)
            a.devs[kVictim]->fail();
        auto spare = a.make_device(GetParam(), "spare", false);
        a.arr->set_spare(spare.get());
        int calls = 0;
        Status st;
        ZonedArray::LifecycleConfig lc;
        lc.on_rebuild_done = [&](uint32_t, Status s) {
            st = s;
            ++calls;
        };
        a.arr->set_lifecycle(std::move(lc));

        const std::vector<uint8_t> want = pattern_data(kSectors, 31);
        int reads_ok = 0;
        for (int i = 0; i < 4; ++i) {
            a.arr->read(0, kSectors, [&](IoResult r) {
                EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
                EXPECT_EQ(r.data, want);
                reads_ok += r.status.is_ok();
            });
        }
        a.loop->run();
        EXPECT_EQ(reads_ok, 4);
        EXPECT_EQ(calls, 1);
        ASSERT_TRUE(st.is_ok()) << st.to_string();
        EXPECT_EQ(a.arr->device(kVictim), spare.get());
        EXPECT_FALSE(a.arr->degraded())
            << "failed member " << a.arr->failed_device();
        EXPECT_EQ(*a.spares_promoted, 1u);
        IoResult r = a.read(0, kSectors);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        EXPECT_EQ(r.data, want);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LifecycleContract,
    ::testing::Values(Engine::kRaizn, Engine::kMdraid, Engine::kRaid5),
    [](const ::testing::TestParamInfo<Engine> &info) {
        switch (info.param) {
        case Engine::kRaizn:
            return std::string("raizn");
        case Engine::kMdraid:
            return std::string("mdraid");
        case Engine::kRaid5:
            return std::string("raid5");
        }
        return std::string("unknown");
    });

} // namespace
} // namespace raizn
