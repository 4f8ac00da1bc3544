/**
 * @file
 * The scrub contract every redundant zoned engine meets through the one
 * ZonedArray walker (RAIZN and the raid1/5/6/10 engine modes):
 *  - a clean array scans at least one stripe with no mismatches;
 *  - a corrupted data unit on a settled stripe is detected and counted
 *    recoverable, and RAIZN repairs it, so its second pass is clean;
 *  - a one-shot read error on a scrub read is retried, not counted
 *    unrecoverable;
 *  - the background scrubber reports passes, and restarting it within
 *    one interval does not double its rate.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "array/engine.h"
#include "fault/fault_device.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

const RaidMode kModes[] = {RaidMode::kRaizn, RaidMode::kRaid1,
                           RaidMode::kRaid5, RaidMode::kRaid6,
                           RaidMode::kRaid10};

/// Any ZonedArray over four fault-injecting ZNS members, with the
/// placement and counters the contract needs from its engine.
struct ScrubSut {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> zns;
    std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
    std::unique_ptr<ZonedArray> arr;
    RaiznVolume *vol = nullptr; ///< raizn only
    ZonedEngine *eng = nullptr; ///< engine modes only
    uint64_t zone_cap = 0; ///< member zone size

    void
    make(RaidMode mode)
    {
        const bool raizn = mode == RaidMode::kRaizn;
        zone_cap = raizn ? 128 : 64;
        loop = std::make_unique<EventLoop>();
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < 4; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = raizn ? 8 : 7;
            dc.zone_size = zone_cap;
            dc.zone_capacity = zone_cap;
            dc.max_open_zones = 14;
            dc.max_active_zones = 14;
            dc.atomic_write_sectors = 4;
            dc.data_mode = DataMode::kStore;
            dc.name = "zns" + std::to_string(i);
            zns.push_back(std::make_unique<ZnsDevice>(loop.get(), dc));
            fdevs.push_back(std::make_unique<FaultInjectingDevice>(
                loop.get(), zns.back().get(), FaultConfig{}));
            ptrs.push_back(fdevs.back().get());
        }
        if (raizn) {
            RaiznConfig rc;
            rc.num_devices = 4;
            rc.su_sectors = 16;
            auto res = RaiznVolume::create(loop.get(), ptrs, rc);
            ASSERT_TRUE(res.is_ok()) << res.status().to_string();
            vol = res.value().get();
            arr = std::move(res).value();
        } else {
            EngineConfig ec;
            ec.mode = mode;
            ec.su_sectors = 4;
            auto res = ZonedEngine::create(loop.get(), ptrs, ec);
            ASSERT_TRUE(res.is_ok()) << res.status().to_string();
            eng = res.value().get();
            arr = std::move(res).value();
        }
    }

    uint32_t
    su() const
    {
        return vol ? vol->layout().su() : eng->su_sectors();
    }

    /// Logical sectors of one stripe of zone 0.
    uint64_t
    stripe_sectors() const
    {
        return vol ? vol->layout().stripe_sectors()
                   : static_cast<uint64_t>(su()) * eng->data_units(0);
    }

    uint64_t
    io_retries() const
    {
        return vol ? vol->stats().io_retries : eng->stats().io_retries;
    }

    uint64_t
    scrubbed_stripes() const
    {
        return vol ? vol->stats().scrubbed_stripes
                   : eng->stats().scrubbed_stripes;
    }

    /// Writes four full stripes of a seeded pattern into zone 0 and
    /// flushes, so every stripe is settled.
    void
    fill(uint8_t seed)
    {
        const uint64_t n = stripe_sectors();
        for (uint64_t s = 0; s < 4; ++s) {
            std::vector<uint8_t> data(n * kSectorSize);
            for (size_t i = 0; i < data.size(); ++i)
                data[i] = static_cast<uint8_t>(seed + s * 31 + i * 7);
            IoResult out;
            bool done = false;
            arr->write(s * n, std::move(data), {}, [&](IoResult r) {
                out = std::move(r);
                done = true;
            });
            loop->run_until_pred([&] { return done; });
            ASSERT_TRUE(done && out.status.is_ok())
                << out.status.to_string();
        }
        bool flushed = false;
        arr->flush([&](IoResult r) {
            EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
            flushed = true;
        });
        loop->run_until_pred([&] { return flushed; });
        ASSERT_TRUE(flushed);
    }

    /// Silently corrupts the media of data unit 0 of stripe 0 in zone
    /// 0 (for mirrors, its first copy).
    void
    corrupt_first_unit()
    {
        const uint32_t dev = vol ? vol->layout().data_dev(0, 0, 0)
                                 : eng->chunk_dev(0, 0, 0);
        // The engine's logical zone 0 is physical zone 0.
        const uint64_t pba = vol ? vol->layout().slot_pba(0, 0) : 0;
        zns[dev]->corrupt(pba, su(), 0xbad5c0b);
    }

    ZonedArray::ScrubReport
    scrub()
    {
        ZonedArray::ScrubReport rep;
        Status s = arr->scrub_all(&rep);
        EXPECT_TRUE(s.is_ok()) << s.to_string();
        return rep;
    }

    /// Stripes the background scrubber verifies in 40 intervals, when
    /// (optionally) restarted half an interval after its start.
    uint64_t
    background_rate(bool restart)
    {
        const Tick interval = 100 * kNsPerUs;
        const Tick t0 = loop->now();
        const uint64_t before = scrubbed_stripes();
        arr->start_scrubber(interval);
        if (restart) {
            loop->run_until(t0 + interval / 2);
            arr->stop_scrubber();
            arr->start_scrubber(interval);
        }
        loop->run_until(t0 + 40 * interval);
        arr->stop_scrubber();
        return scrubbed_stripes() - before;
    }
};

class ScrubContract : public ::testing::TestWithParam<RaidMode>
{
  protected:
    void
    SetUp() override
    {
        sut.make(GetParam());
        if (!HasFatalFailure())
            sut.fill(0x40);
    }

    ScrubSut sut;
};

TEST_P(ScrubContract, CleanArrayScansWithoutMismatches)
{
    ZonedArray::ScrubReport rep = sut.scrub();
    EXPECT_GE(rep.stripes_scanned, 1u);
    EXPECT_EQ(0u, rep.parity_mismatches);
    EXPECT_EQ(0u, rep.crc_mismatches);
    EXPECT_EQ(0u, rep.unrecoverable);
    EXPECT_EQ(rep.stripes_scanned, sut.scrubbed_stripes());
}

TEST_P(ScrubContract, CorruptDataUnitIsDetected)
{
    sut.corrupt_first_unit();
    ZonedArray::ScrubReport rep = sut.scrub();
    EXPECT_GE(rep.parity_mismatches, 1u);
    EXPECT_GE(rep.crc_mismatches, 1u);
    // One bad unit is always within the redundancy.
    EXPECT_EQ(0u, rep.unrecoverable);
    if (sut.vol == nullptr)
        return; // the engines report; their reads serve a good copy
    EXPECT_EQ(1u, rep.repaired_units);
    ZonedArray::ScrubReport again = sut.scrub();
    EXPECT_EQ(0u, again.parity_mismatches);
    EXPECT_EQ(0u, again.crc_mismatches);
    EXPECT_EQ(0u, again.unrecoverable);
}

TEST_P(ScrubContract, TransientReadErrorIsRetried)
{
    const uint64_t retries = sut.io_retries();
    for (auto &fd : sut.fdevs)
        fd->inject_once(IoOp::kRead, FaultKind::kIoError);
    ZonedArray::ScrubReport rep = sut.scrub();
    EXPECT_GE(rep.stripes_scanned, 1u);
    EXPECT_EQ(0u, rep.unrecoverable);
    EXPECT_EQ(0u, rep.parity_mismatches);
    EXPECT_GE(sut.io_retries() - retries, 1u);
}

TEST_P(ScrubContract, BackgroundScrubberReportsAPass)
{
    uint64_t passes = 0;
    ZonedArray::ScrubReport last;
    sut.arr->start_scrubber(100 * kNsPerUs,
                            [&](const ZonedArray::ScrubReport &r) {
                                passes++;
                                last = r;
                            });
    EXPECT_TRUE(sut.arr->scrubber_running());
    sut.loop->run_until_pred([&] { return passes >= 1; });
    sut.arr->stop_scrubber();
    EXPECT_FALSE(sut.arr->scrubber_running());
    EXPECT_GE(last.stripes_scanned, 1u);
    EXPECT_EQ(0u, last.parity_mismatches);
    EXPECT_EQ(0u, last.unrecoverable);
}

TEST_P(ScrubContract, RestartWithinIntervalKeepsOneChain)
{
    const uint64_t single = sut.background_rate(false);
    ScrubSut restarted;
    restarted.make(GetParam());
    ASSERT_FALSE(HasFatalFailure());
    restarted.fill(0x40);
    const uint64_t rate = restarted.background_rate(true);
    EXPECT_GE(single, 1u);
    EXPECT_LE(rate, single + 1);
}

INSTANTIATE_TEST_SUITE_P(Engines, ScrubContract, ::testing::ValuesIn(kModes),
                         [](const ::testing::TestParamInfo<RaidMode> &i) {
                             return std::string(to_string(i.param));
                         });

} // namespace
} // namespace raizn
