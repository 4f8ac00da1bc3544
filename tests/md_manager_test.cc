/**
 * @file
 * Unit tests for the metadata zone manager: role bindings, appends,
 * swap-zone GC with checkpointing (Fig. 4), scan/replay ordering,
 * swap borrowing, and length-only payloads on timing-only members.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "array/md_manager.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

/// Forwards to a device and remembers the last command's shape.
class RecordingDevice : public BlockDevice
{
  public:
    explicit RecordingDevice(BlockDevice *inner) : inner_(inner) {}

    const DeviceGeometry &geometry() const override
    {
        return inner_->geometry();
    }
    const DeviceStats &stats() const override { return inner_->stats(); }
    DataMode data_mode() const override { return inner_->data_mode(); }
    void
    submit(IoRequest req, IoCallback cb) override
    {
        last_op = req.op;
        last_nsectors = req.nsectors;
        last_data_bytes = req.data.size();
        inner_->submit(std::move(req), std::move(cb));
    }
    Result<ZoneInfo> zone_info(uint32_t zone) const override
    {
        return inner_->zone_info(zone);
    }
    bool failed() const override { return inner_->failed(); }
    void fail() override { inner_->fail(); }

    IoOp last_op = IoOp::kRead;
    uint32_t last_nsectors = 0;
    size_t last_data_bytes = 0;

  private:
    BlockDevice *inner_;
};

class MdManagerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_.num_devices = 3;
        cfg_.su_sectors = 4;
        cfg_.md_zones_per_device = 4; // extra swap zone
        for (int i = 0; i < 3; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = 8;
            dc.zone_size = 32; // tiny zones: GC triggers fast
            dc.data_mode = modes_[i];
            devs_.push_back(std::make_unique<ZnsDevice>(&loop_, dc));
            recs_.push_back(
                std::make_unique<RecordingDevice>(devs_.back().get()));
            ptrs_.push_back(recs_.back().get());
        }
        zones_ = MdZoneRange::trailing(ptrs_[0]->geometry(),
                                       cfg_.md_zones_per_device);
        md_ = std::make_unique<MdManager>(&loop_, zones_, ptrs_);
        ASSERT_TRUE(md_->format().is_ok());
    }

    Status
    append_sync(uint32_t dev, MdZoneRole role, MdAppend app,
                bool durable = false)
    {
        Status out;
        bool done = false;
        md_->append(dev, role, std::move(app), durable, [&](Status s) {
            out = s;
            done = true;
        });
        loop_.run_until_pred([&] { return done; });
        return out;
    }

    static MdAppend
    reset_record(uint32_t zone, uint64_t gen)
    {
        MdAppend app;
        app.header.type = MdType::kZoneResetLog;
        app.header.generation = gen;
        app.inline_data = encode_zone_reset({zone});
        return app;
    }

    /// Length-only partial-parity entry: `n` payload sectors, no bytes.
    static MdAppend
    pp_record(uint32_t n)
    {
        MdAppend app;
        app.header.type = MdType::kPartialParity;
        app.header.start_lba = 8;
        app.header.end_lba = 12;
        app.inline_data.assign(12, 0);
        app.set_payload(n);
        return app;
    }

    EventLoop loop_;
    RaiznConfig cfg_;
    std::vector<DataMode> modes_ = std::vector<DataMode>(3, DataMode::kStore);
    std::vector<std::unique_ptr<ZnsDevice>> devs_;
    std::vector<std::unique_ptr<RecordingDevice>> recs_;
    std::vector<BlockDevice *> ptrs_;
    MdZoneRange zones_;
    std::unique_ptr<MdManager> md_;
};

TEST_F(MdManagerTest, FormatBindsRoles)
{
    // Each device: md zone 0 = general, 1 = parity log (role records
    // consume 1 sector each).
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kGeneral),
              uint64_t{zones_.first} * zones_.zone_size + 1);
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kParityLog),
              (uint64_t{zones_.first} + 1) * zones_.zone_size + 1);
}

TEST_F(MdManagerTest, AppendAdvancesWp)
{
    uint64_t before = md_->active_zone_wp(1, MdZoneRole::kGeneral);
    ASSERT_TRUE(append_sync(1, MdZoneRole::kGeneral,
                            reset_record(0, 0)).is_ok());
    EXPECT_EQ(md_->active_zone_wp(1, MdZoneRole::kGeneral), before + 1);
}

TEST_F(MdManagerTest, ScanReturnsAppendedEntries)
{
    ASSERT_TRUE(append_sync(0, MdZoneRole::kGeneral,
                            reset_record(3, 7), true)
                    .is_ok());
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    bool found = false;
    for (const MdEntry &e : logs.value()[0].entries) {
        if (e.header.type == MdType::kZoneResetLog) {
            auto rec = decode_zone_reset(e);
            ASSERT_TRUE(rec.is_ok());
            EXPECT_EQ(rec.value().logical_zone, 3u);
            EXPECT_EQ(e.header.generation, 7u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(MdManagerTest, GcSwitchesToSwapZone)
{
    // Snapshot provider that checkpoints one marker record.
    md_->set_snapshot_provider([](uint32_t, MdZoneRole role) {
        std::vector<MdAppend> out;
        if (role == MdZoneRole::kGeneral) {
            MdAppend app;
            app.header.type = MdType::kZoneResetLog;
            app.header.generation = 42;
            app.inline_data = encode_zone_reset({9});
            out.push_back(std::move(app));
        }
        return out;
    });
    // Zone capacity is 32 sectors; role record took 1: fill it.
    for (int i = 0; i < 80; ++i) {
        ASSERT_TRUE(append_sync(0, MdZoneRole::kGeneral,
                                reset_record(1, static_cast<uint64_t>(i)))
                        .is_ok());
    }
    loop_.run();
    EXPECT_GT(md_->gc_runs(), 0u);
    // After GC, scan still yields the checkpointed marker plus recent
    // entries, flagged as checkpoint.
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    bool checkpointed = false;
    size_t entries = 0;
    for (const MdEntry &e : logs.value()[0].entries) {
        entries++;
        if (e.header.checkpoint &&
            e.header.type == MdType::kZoneResetLog) {
            auto rec = decode_zone_reset(e);
            if (rec.is_ok() && rec.value().logical_zone == 9)
                checkpointed = true;
        }
    }
    EXPECT_TRUE(checkpointed) << "checkpoint entry missing";
    EXPECT_LT(entries, 80u) << "old zone should have been recycled";
}

TEST_F(MdManagerTest, GcIsolatedPerRole)
{
    // Filling the parity-log zone must not disturb the general zone.
    uint64_t general_wp = md_->active_zone_wp(0, MdZoneRole::kGeneral);
    for (int i = 0; i < 80; ++i) {
        MdAppend app;
        app.header.type = MdType::kPartialParity;
        app.header.start_lba = static_cast<uint64_t>(i);
        app.header.end_lba = static_cast<uint64_t>(i) + 1;
        app.inline_data.assign(12, 0);
        app.set_payload(1, std::vector<uint8_t>(kSectorSize, 0xaa));
        ASSERT_TRUE(
            append_sync(0, MdZoneRole::kParityLog, std::move(app))
                .is_ok());
    }
    loop_.run();
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kGeneral), general_wp);
}

TEST_F(MdManagerTest, BorrowAndReturnSwap)
{
    auto sw = md_->borrow_swap(2);
    ASSERT_TRUE(sw.is_ok());
    uint32_t idx = sw.value();
    EXPECT_GE(idx, 2u); // zones 0/1 hold the roles
    // Both remaining swaps borrowed -> exhausted.
    auto sw2 = md_->borrow_swap(2);
    ASSERT_TRUE(sw2.is_ok());
    EXPECT_FALSE(md_->borrow_swap(2).is_ok());
    md_->return_swap(2, idx);
    EXPECT_TRUE(md_->borrow_swap(2).is_ok());
}

TEST_F(MdManagerTest, FailedDeviceAppendsSucceedAsNoops)
{
    devs_[1]->fail();
    ASSERT_TRUE(append_sync(1, MdZoneRole::kGeneral,
                            reset_record(0, 0)).is_ok());
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    EXPECT_FALSE(logs.value()[1].alive);
    EXPECT_TRUE(logs.value()[1].entries.empty());
}

TEST_F(MdManagerTest, ScanSurvivesPowerCutDuringGc)
{
    md_->set_snapshot_provider(
        [](uint32_t, MdZoneRole) { return std::vector<MdAppend>(); });
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(append_sync(0, MdZoneRole::kGeneral,
                                reset_record(1, static_cast<uint64_t>(i)))
                        .is_ok());
    }
    // Trigger appends near the GC boundary but cut power before the
    // old zone's reset can land.
    md_->append(0, MdZoneRole::kGeneral, reset_record(2, 99), false,
                [](Status) {});
    for (auto &d : devs_)
        d->power_cut({PowerLossSpec::Policy::kDropCache, 5});
    EventLoop loop2;
    for (auto &d : devs_)
        d->reattach(&loop2);
    MdManager md2(&loop2, zones_, ptrs_);
    auto logs = md2.scan();
    ASSERT_TRUE(logs.is_ok()) << logs.status().to_string();
    // Whatever survived is parseable and the manager is appendable.
    Status out;
    bool done = false;
    md2.append(0, MdZoneRole::kGeneral, reset_record(3, 1), true,
               [&](Status s) {
                   out = s;
                   done = true;
               });
    loop2.run_until_pred([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.to_string();
}

TEST(MdManagerDefaultZones, GcWaitsForTheRecycledZoneReset)
{
    // The default three metadata zones leave one swap zone. One-sector
    // writes into one stripe log two sectors of partial parity each,
    // so the parity log outruns the 64-sector zones faster than a GC
    // reset (2 ms) hands the recycled zone back.
    EventLoop loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    for (int i = 0; i < 5; ++i) {
        ZnsDeviceConfig dc;
        dc.nzones = 8;
        dc.zone_size = 64;
        devs.push_back(std::make_unique<ZnsDevice>(&loop, dc));
        ptrs.push_back(devs.back().get());
    }
    RaiznConfig rc;
    rc.num_devices = 5;
    rc.su_sectors = 16;
    ASSERT_EQ(rc.md_zones_per_device, 3u);
    auto res = RaiznVolume::create(&loop, ptrs, rc);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    std::unique_ptr<RaiznVolume> vol = std::move(res).value();

    int ok = 0;
    for (uint64_t lba = 0; lba < 64; ++lba) {
        vol->write(lba, pattern_data(1, lba), {}, [&](IoResult r) {
            ok += r.status.is_ok();
        });
    }
    loop.run();
    EXPECT_EQ(ok, 64);
    EXPECT_GE(vol->md_manager().gc_runs(), 2u);

    IoResult r;
    vol->read(0, 64, [&](IoResult got) { r = std::move(got); });
    loop.run();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    for (uint64_t lba = 0; lba < 64; ++lba) {
        std::vector<uint8_t> want = pattern_data(1, lba);
        EXPECT_TRUE(std::equal(want.begin(), want.end(),
                               r.data.begin() + lba * kSectorSize))
            << "sector " << lba;
    }
}

/// Member 1 runs timing-only; members 0 and 2 store bytes.
class MdManagerMixedTest : public MdManagerTest
{
  protected:
    MdManagerMixedTest() { modes_[1] = DataMode::kNone; }
};

TEST_F(MdManagerMixedTest, LengthOnlyEntryOnTimingOnlyMember)
{
    uint64_t wp = md_->active_zone_wp(1, MdZoneRole::kParityLog);
    uint64_t appends = devs_[1]->stats().appends;
    ASSERT_TRUE(
        append_sync(1, MdZoneRole::kParityLog, pp_record(4)).is_ok());
    EXPECT_EQ(md_->active_zone_wp(1, MdZoneRole::kParityLog), wp + 5);
    EXPECT_EQ(devs_[1]->stats().appends, appends + 1);
    EXPECT_EQ(recs_[1]->last_op, IoOp::kAppend);
    EXPECT_EQ(recs_[1]->last_nsectors, 5u);
    EXPECT_EQ(recs_[1]->last_data_bytes, 0u) << "no bytes for kNone";
}

TEST_F(MdManagerMixedTest, LengthOnlyEntryOnStoringMemberIsZeroFilled)
{
    uint64_t wp = md_->active_zone_wp(0, MdZoneRole::kParityLog);
    ASSERT_TRUE(
        append_sync(0, MdZoneRole::kParityLog, pp_record(4)).is_ok());
    EXPECT_EQ(md_->active_zone_wp(0, MdZoneRole::kParityLog), wp + 5);
    EXPECT_EQ(recs_[0]->last_nsectors, 5u);
    EXPECT_EQ(recs_[0]->last_data_bytes, 5u * kSectorSize);

    // The stored entry decodes with its payload sector count intact.
    auto logs = md_->scan();
    ASSERT_TRUE(logs.is_ok());
    bool found = false;
    for (const MdEntry &e : logs.value()[0].entries) {
        if (e.header.type != MdType::kPartialParity)
            continue;
        found = true;
        EXPECT_EQ(e.pba, wp);
        EXPECT_EQ(e.total_sectors, 5u);
        EXPECT_EQ(e.payload, std::vector<uint8_t>(4 * kSectorSize, 0));
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace raizn
