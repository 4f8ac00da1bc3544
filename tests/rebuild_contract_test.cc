/**
 * @file
 * The rebuild contract every redundant engine meets through the one
 * ZonedArray rebuild walk (RAIZN, mdraid and the raid1/5/6/10 engine
 * modes):
 *  - an out-of-range or healthy member is rejected with
 *    kInvalidArgument, and so is a failed member not yet replaced;
 *  - a second rebuild while one runs gets kBusy, and the first still
 *    finishes with the data read back byte for byte;
 *  - progress fires once per zone, in order, ending at (n, n);
 *  - a fixed-rate throttle counts stalls and the rebuild still
 *    finishes;
 *  - destroying the array mid-rebuild frees the walk and its callbacks
 *    (checked for leaks under the asan preset);
 *  - a rebuild whose target dies fails and leaves the member failed;
 *  - a flush with every member dead completes with kOffline;
 *  - a failure beyond the tolerance refuses writes (kReadOnly on
 *    RAIZN, kOffline elsewhere) and keeps the first member marked.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/engine.h"
#include "mdraid/md_volume.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/conv_device.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

const RaidMode kModes[] = {RaidMode::kRaizn, RaidMode::kMdraid,
                           RaidMode::kRaid1, RaidMode::kRaid5,
                           RaidMode::kRaid6, RaidMode::kRaid10};

std::vector<uint8_t>
pattern(uint64_t nsectors, uint8_t seed)
{
    std::vector<uint8_t> out(nsectors * kSectorSize);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<uint8_t>(seed + i * 13 + i / kSectorSize);
    return out;
}

/// Any redundant ZonedArray over data-storing members, one of which
/// (kVictim) the tests fail, replace and rebuild.
struct RebuildSut {
    static constexpr uint32_t kVictim = 1;

    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> zns;
    std::vector<std::unique_ptr<ConvDevice>> conv;
    std::unique_ptr<ZonedArray> arr;
    const uint64_t *stalls = nullptr; ///< the engine's throttle counter
    uint64_t written = 0; ///< sectors of the pattern at lba 0

    void
    make(RaidMode mode)
    {
        loop = std::make_unique<EventLoop>();
        std::vector<BlockDevice *> ptrs;
        if (mode == RaidMode::kMdraid) {
            for (uint32_t i = 0; i < 5; ++i) {
                ConvDeviceConfig cfg;
                cfg.nsectors = 2 * kMiB / kSectorSize;
                cfg.pages_per_block = 64;
                cfg.name = "conv" + std::to_string(i);
                conv.push_back(std::make_unique<ConvDevice>(loop.get(), cfg));
                ptrs.push_back(conv.back().get());
            }
            MdVolumeConfig mcfg;
            mcfg.chunk_sectors = 16;
            mcfg.stripe_cache_bytes = 128 * kKiB;
            auto vol = std::make_unique<MdVolume>(loop.get(), ptrs, mcfg);
            stalls = &vol->stats().resync_throttle_stalls;
            arr = std::move(vol);
            return;
        }
        const bool raizn = mode == RaidMode::kRaizn;
        const uint32_t ndev = raizn ? 5 : 4;
        for (uint32_t i = 0; i < ndev; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = raizn ? 8 : 7;
            dc.zone_size = raizn ? 128 : 64;
            dc.zone_capacity = dc.zone_size;
            dc.max_open_zones = 14;
            dc.max_active_zones = 14;
            dc.atomic_write_sectors = 4;
            dc.data_mode = DataMode::kStore;
            dc.name = "zns" + std::to_string(i);
            zns.push_back(std::make_unique<ZnsDevice>(loop.get(), dc));
            ptrs.push_back(zns.back().get());
        }
        if (raizn) {
            RaiznConfig rc;
            rc.num_devices = ndev;
            rc.su_sectors = 16;
            auto res = RaiznVolume::create(loop.get(), ptrs, rc);
            ASSERT_TRUE(res.is_ok()) << res.status().to_string();
            stalls = &res.value()->stats().rebuild_throttle_stalls;
            arr = std::move(res).value();
            return;
        }
        EngineConfig ec;
        ec.mode = mode;
        ec.su_sectors = 4;
        auto res = ZonedEngine::create(loop.get(), ptrs, ec);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        stalls = &res.value()->stats().rebuild_throttle_stalls;
        arr = std::move(res).value();
    }

    BlockDevice *
    victim() const
    {
        return conv.empty() ? static_cast<BlockDevice *>(zns[kVictim].get())
                            : conv[kVictim].get();
    }

    void
    replace_victim()
    {
        if (conv.empty())
            zns[kVictim]->replace();
        else
            conv[kVictim]->replace();
    }

    /// Writes one and a half zones of pattern (256 sectors on the
    /// conventional md stack) in 16-sector writes and flushes.
    void
    fill()
    {
        const uint64_t zone = arr->zone_capacity();
        written = zone > 0 ? zone + zone / 2 : 256;
        const std::vector<uint8_t> all = pattern(written, 0x5a);
        for (uint64_t lba = 0; lba < written; lba += 16) {
            const auto *p = all.data() + lba * kSectorSize;
            IoResult out;
            bool done = false;
            arr->write(lba, std::vector<uint8_t>(p, p + 16 * kSectorSize),
                       {}, [&](IoResult r) {
                           out = std::move(r);
                           done = true;
                       });
            loop->run_until_pred([&] { return done; });
            ASSERT_TRUE(done && out.status.is_ok())
                << "lba " << lba << ": " << out.status.to_string();
        }
        bool flushed = false;
        arr->flush([&](IoResult) { flushed = true; });
        loop->run_until_pred([&] { return flushed; });
    }

    /// Writes 16 sectors of pattern at the end of the written prefix.
    IoResult
    append16()
    {
        IoResult out;
        bool done = false;
        arr->write(written, pattern(16, 0x33), {}, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        written += 16;
        return out;
    }

    /// Fails and replaces kVictim.
    void
    lose_victim()
    {
        arr->mark_device_failed(kVictim);
        replace_victim();
    }

    Status
    rebuild(ZonedArray::ProgressCb progress = nullptr)
    {
        Status out;
        bool done = false;
        arr->rebuild_device(kVictim, std::move(progress), [&](Status s) {
            out = s;
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        return out;
    }

    /// Reads back the whole pattern with kVictim serving its share.
    void
    expect_pattern()
    {
        IoResult out;
        bool done = false;
        arr->read(0, static_cast<uint32_t>(written), [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
        EXPECT_EQ(out.data, pattern(written, 0x5a));
        EXPECT_LT(arr->failed_device(), 0);
    }
};

class RebuildContract : public ::testing::TestWithParam<RaidMode>
{
  protected:
    void
    SetUp() override
    {
        sut.make(GetParam());
        if (!HasFatalFailure())
            sut.fill();
    }

    RebuildSut sut;
};

TEST_P(RebuildContract, RejectsAMemberThatIsNotFailedAndReplaced)
{
    const uint32_t n = sut.arr->num_devices();
    std::vector<Status> got;
    for (uint32_t dev : {n, RebuildSut::kVictim})
        sut.arr->rebuild_device(dev, nullptr,
                                [&](Status s) { got.push_back(s); });
    sut.loop->run_until_pred([&] { return got.size() == 2; });
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(StatusCode::kInvalidArgument, got[0].code()) << "out of range";
    EXPECT_EQ(StatusCode::kInvalidArgument, got[1].code()) << "healthy";

    sut.arr->mark_device_failed(RebuildSut::kVictim);
    if (sut.victim()->failed()) {
        // Failed on the media too: nothing to rebuild onto yet.
        Status s = sut.rebuild();
        EXPECT_EQ(StatusCode::kInvalidArgument, s.code()) << "not replaced";
    }
    sut.replace_victim();
    Status s = sut.rebuild();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    sut.expect_pattern();
}

TEST_P(RebuildContract, SecondRebuildIsBusyAndTheFirstFinishes)
{
    sut.lose_victim();
    Status first;
    Status second;
    bool first_done = false;
    bool second_done = false;
    sut.arr->rebuild_device(RebuildSut::kVictim, nullptr, [&](Status s) {
        first = s;
        first_done = true;
    });
    sut.arr->rebuild_device(RebuildSut::kVictim, nullptr, [&](Status s) {
        second = s;
        second_done = true;
    });
    sut.loop->run_until_pred([&] { return first_done && second_done; });
    ASSERT_TRUE(first_done && second_done);
    EXPECT_EQ(StatusCode::kBusy, second.code()) << second.to_string();
    ASSERT_TRUE(first.is_ok()) << first.to_string();
    sut.expect_pattern();
}

TEST_P(RebuildContract, ProgressOncePerZoneInOrder)
{
    sut.lose_victim();
    std::vector<std::pair<uint64_t, uint64_t>> calls;
    Status s = sut.rebuild([&](uint64_t done, uint64_t total) {
        calls.emplace_back(done, total);
    });
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    ASSERT_FALSE(calls.empty());
    const uint64_t n = calls.back().second;
    ASSERT_EQ(n, calls.size());
    for (uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(i + 1, calls[i].first);
        EXPECT_EQ(n, calls[i].second);
    }
    sut.expect_pattern();
}

TEST_P(RebuildContract, FixedRateThrottleStallsAndFinishes)
{
    ZonedArray::LifecycleConfig lc;
    lc.auto_rebuild = false;
    lc.throttle.rate_sectors_per_sec = 100000;
    lc.throttle.burst_sectors = 16;
    sut.arr->set_lifecycle(std::move(lc));
    sut.lose_victim();
    const uint64_t before = *sut.stalls;
    Status s = sut.rebuild();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    EXPECT_GT(*sut.stalls, before) << "rebuild was not throttled";
    sut.expect_pattern();
}

TEST_P(RebuildContract, TeardownMidRebuildFreesTheWalk)
{
    sut.lose_victim();
    auto token = std::make_shared<int>(0);
    bool done = false;
    sut.arr->rebuild_device(
        RebuildSut::kVictim, [token](uint64_t, uint64_t) {},
        [token, &done](Status) { done = true; });
    // Mid-rebuild: target writes are in flight.
    const uint64_t at_start = sut.victim()->stats().sectors_written;
    sut.loop->run_until_pred([&] {
        return done || sut.victim()->stats().sectors_written > at_start;
    });
    ASSERT_FALSE(done) << "rebuild finished before the teardown";
    ASSERT_GT(token.use_count(), 1);
    sut.arr.reset();
    sut.zns.clear();
    sut.conv.clear();
    sut.loop.reset();
    EXPECT_FALSE(done);
    EXPECT_EQ(1, token.use_count()) << "the walk outlived its array";
}

TEST_P(RebuildContract, FailedRebuildLeavesTheMemberFailed)
{
    sut.lose_victim();
    Status st;
    bool done = false;
    sut.arr->rebuild_device(RebuildSut::kVictim, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    // The target dies 20 us into the rebuild.
    const Tick t0 = sut.loop->now();
    sut.loop->run_until_pred(
        [&] { return done || sut.loop->now() >= t0 + 20 * kNsPerUs; });
    ASSERT_FALSE(done) << "rebuild finished before the target died";
    sut.victim()->fail();
    sut.loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_EQ("OFFLINE: device failed", st.to_string());
    EXPECT_EQ(static_cast<int>(RebuildSut::kVictim),
              sut.arr->failed_device());
    EXPECT_TRUE(sut.arr->degraded());
}

TEST_P(RebuildContract, FlushWithEveryMemberDeadCompletes)
{
    for (uint32_t d = 0; d < sut.arr->num_devices(); ++d)
        sut.arr->device(d)->fail();
    IoResult out;
    bool done = false;
    sut.arr->flush([&](IoResult r) {
        out = std::move(r);
        done = true;
    });
    sut.loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(done) << "flush never completed";
    EXPECT_EQ(StatusCode::kOffline, out.status.code())
        << out.status.to_string();
}

TEST_P(RebuildContract, FailureBeyondToleranceRefusesWrites)
{
    // Members 0, 2, 3, ...: fail as many as the array tolerates, then
    // one more.
    const uint32_t tolerance = sut.arr->fault_tolerance();
    std::vector<uint32_t> lost{0};
    for (uint32_t d = 2; lost.size() <= tolerance; ++d)
        lost.push_back(d);
    for (size_t i = 0; i < tolerance; ++i)
        sut.arr->mark_device_failed(lost[i]);
    IoResult r = sut.append16();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();

    sut.arr->mark_device_failed(lost.back());
    r = sut.append16();
    const StatusCode want = GetParam() == RaidMode::kRaizn
        ? StatusCode::kReadOnly
        : StatusCode::kOffline;
    EXPECT_EQ(want, r.status.code()) << r.status.to_string();
    EXPECT_EQ(0, sut.arr->failed_device());
    EXPECT_TRUE(sut.arr->degraded());
}

INSTANTIATE_TEST_SUITE_P(Engines, RebuildContract, ::testing::ValuesIn(kModes),
                         [](const ::testing::TestParamInfo<RaidMode> &i) {
                             return std::string(to_string(i.param));
                         });

} // namespace
} // namespace raizn
