/**
 * @file
 * Unit tests for the emulated ZNS device: zone state machine, write
 * pointer rule, append, open/active limits, persistence + power loss,
 * failure injection, and the payload page lifetime (allocate on first
 * write, free on reset, rollback and replace). The page store itself
 * runs against a dense byte model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "sim/event_loop.h"
#include "zns/page_store.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

ZnsDeviceConfig
small_config()
{
    ZnsDeviceConfig cfg;
    cfg.nzones = 8;
    cfg.zone_size = 64; // 256 KiB zones
    cfg.zone_capacity = 48; // capacity < size, like real devices
    cfg.max_open_zones = 3;
    cfg.max_active_zones = 4;
    cfg.atomic_write_sectors = 4;
    return cfg;
}

class ZnsDeviceTest : public ::testing::Test
{
  protected:
    ZnsDeviceTest() : dev_(&loop_, small_config()) {}

    IoResult
    run(IoRequest req)
    {
        return submit_sync(loop_, dev_, std::move(req));
    }

    EventLoop loop_;
    ZnsDevice dev_;
};

TEST_F(ZnsDeviceTest, GeometryDerivedFromConfig)
{
    const auto &g = dev_.geometry();
    EXPECT_TRUE(g.zoned);
    EXPECT_EQ(g.nzones, 8u);
    EXPECT_EQ(g.zone_size, 64u);
    EXPECT_EQ(g.zone_capacity, 48u);
    EXPECT_EQ(g.nsectors, 8u * 64u);
}

TEST_F(ZnsDeviceTest, PayloadMustAgreeWithNsectors)
{
    // Payload not a whole number of sectors.
    IoRequest bad;
    bad.op = IoOp::kWrite;
    bad.slba = 0;
    bad.nsectors = 2;
    bad.data = std::vector<uint8_t>(kSectorSize + 100, 0xab);
    EXPECT_EQ(run(std::move(bad)).status.code(),
              StatusCode::kInvalidArgument);

    // Sector-aligned payload whose length disagrees with nsectors.
    IoRequest wrong;
    wrong.op = IoOp::kWrite;
    wrong.slba = 0;
    wrong.nsectors = 4;
    wrong.data = pattern_data(2, 1);
    EXPECT_EQ(run(std::move(wrong)).status.code(),
              StatusCode::kInvalidArgument);

    // Appends are validated the same way.
    IoRequest app;
    app.op = IoOp::kAppend;
    app.slba = 0;
    app.nsectors = 4;
    app.data = pattern_data(3, 1);
    EXPECT_EQ(run(std::move(app)).status.code(),
              StatusCode::kInvalidArgument);

    // Rejected commands leave the zone untouched; empty payloads
    // (timing-only) and matching payloads still work.
    auto zi = dev_.zone_info(0);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_EQ(zi.value().wp, 0u);
    EXPECT_TRUE(run(IoRequest::write_len(0, 4)).status.is_ok());
    EXPECT_TRUE(run(IoRequest::write(4, pattern_data(4, 1))).status.is_ok());
}

TEST_F(ZnsDeviceTest, SequentialWriteAdvancesWp)
{
    auto r = run(IoRequest::write(0, pattern_data(4, 1)));
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    auto zi = dev_.zone_info(0);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_EQ(zi.value().wp, 4u);
    EXPECT_EQ(zi.value().state, ZoneState::kImplicitOpen);

    r = run(IoRequest::write(4, pattern_data(4, 2)));
    EXPECT_TRUE(r.status.is_ok());
    EXPECT_EQ(dev_.zone_info(0).value().wp, 8u);
}

TEST_F(ZnsDeviceTest, NonSequentialWriteRejected)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    auto r = run(IoRequest::write(8, pattern_data(4, 2)));
    EXPECT_EQ(r.status.code(), StatusCode::kWritePointerMismatch);
    // Rewriting the start is also a WP mismatch (no overwrites).
    r = run(IoRequest::write(0, pattern_data(4, 3)));
    EXPECT_EQ(r.status.code(), StatusCode::kWritePointerMismatch);
}

TEST_F(ZnsDeviceTest, WriteBeyondCapacityRejected)
{
    // Zone capacity is 48; writing 48 fills it, 49 would cross.
    auto r = run(IoRequest::write_len(0, 49));
    EXPECT_EQ(r.status.code(), StatusCode::kZoneBoundary);
    r = run(IoRequest::write_len(0, 48));
    EXPECT_TRUE(r.status.is_ok());
    EXPECT_EQ(dev_.zone_info(0).value().state, ZoneState::kFull);
    // Full zone rejects further writes.
    r = run(IoRequest::write_len(48, 1));
    EXPECT_EQ(r.status.code(), StatusCode::kNoSpace);
}

TEST_F(ZnsDeviceTest, ReadBackMatchesWritten)
{
    auto payload = pattern_data(8, 99);
    ASSERT_TRUE(run(IoRequest::write(0, IoBuf::copy_of(payload))).status);
    auto r = run(IoRequest::read(0, 8));
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.data, payload);
}

TEST_F(ZnsDeviceTest, UnwrittenSectorsReadZero)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(2, 5))).status);
    auto r = run(IoRequest::read(2, 4));
    ASSERT_TRUE(r.status.is_ok());
    for (uint8_t b : r.data)
        EXPECT_EQ(b, 0);
}

TEST_F(ZnsDeviceTest, AppendReturnsAssignedLba)
{
    auto r = run(IoRequest::append(64, pattern_data(4, 1)));
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.lba, 64u);
    r = run(IoRequest::append(64, pattern_data(4, 2)));
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.lba, 68u);
    EXPECT_EQ(dev_.zone_info(1).value().wp, 72u);
}

TEST_F(ZnsDeviceTest, AppendMustTargetZoneStart)
{
    auto r = run(IoRequest::append(70, pattern_data(4, 1)));
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ZnsDeviceTest, ZoneResetReturnsToEmpty)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(8, 1))).status);
    auto r = run(IoRequest::zone_reset(0));
    ASSERT_TRUE(r.status.is_ok());
    auto zi = dev_.zone_info(0).value();
    EXPECT_EQ(zi.state, ZoneState::kEmpty);
    EXPECT_EQ(zi.wp, 0u);
    // Data is gone.
    auto rd = run(IoRequest::read(0, 8));
    for (uint8_t b : rd.data)
        EXPECT_EQ(b, 0);
    // Zone is writable from the start again.
    EXPECT_TRUE(run(IoRequest::write(0, pattern_data(1, 2))).status);
}

TEST_F(ZnsDeviceTest, ZoneFinishMakesFull)
{
    ASSERT_TRUE(run(IoRequest::write_len(0, 4)).status);
    auto r = run(IoRequest::zone_finish(0));
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(dev_.zone_info(0).value().state, ZoneState::kFull);
    EXPECT_EQ(run(IoRequest::write_len(4, 1)).status.code(),
              StatusCode::kNoSpace);
}

TEST_F(ZnsDeviceTest, OpenLimitAutoClosesImplicit)
{
    // max_open = 3; writing to 4 zones auto-closes the LRU one.
    for (uint32_t z = 0; z < 4; ++z) {
        ASSERT_TRUE(
            run(IoRequest::write_len(z * 64, 4)).status.is_ok());
    }
    EXPECT_EQ(dev_.open_zone_count(), 3u);
    EXPECT_EQ(dev_.active_zone_count(), 4u);
    EXPECT_EQ(dev_.zone_info(0).value().state, ZoneState::kClosed);
    // Writing to the closed zone re-opens it (evicting another).
    ASSERT_TRUE(run(IoRequest::write_len(4, 4)).status.is_ok());
    EXPECT_EQ(dev_.zone_info(0).value().state, ZoneState::kImplicitOpen);
}

TEST_F(ZnsDeviceTest, ActiveLimitRejectsNewZone)
{
    for (uint32_t z = 0; z < 4; ++z)
        ASSERT_TRUE(run(IoRequest::write_len(z * 64, 4)).status.is_ok());
    // 4 active zones = max_active; a 5th must be rejected.
    auto r = run(IoRequest::write_len(4 * 64, 4));
    EXPECT_EQ(r.status.code(), StatusCode::kTooManyOpenZones);
    // Resetting one frees an active slot.
    ASSERT_TRUE(run(IoRequest::zone_reset(0)).status.is_ok());
    EXPECT_TRUE(run(IoRequest::write_len(4 * 64, 4)).status.is_ok());
}

TEST_F(ZnsDeviceTest, OpenLimitAllExplicitRejectsWrite)
{
    // Explicitly opened zones cannot be auto-closed: once max_open
    // slots are all explicit, admitting another zone must fail rather
    // than evict one.
    for (uint32_t z = 0; z < 3; ++z) {
        IoRequest open{IoOp::kZoneOpen, z * 64, 0, false, false, {}};
        ASSERT_TRUE(run(std::move(open)).status.is_ok());
    }
    EXPECT_EQ(dev_.open_zone_count(), 3u);
    auto r = run(IoRequest::write_len(3 * 64, 4));
    EXPECT_EQ(r.status.code(), StatusCode::kTooManyOpenZones);
    // Closing one explicit zone frees a slot for the implicit open.
    IoRequest close{IoOp::kZoneClose, 0, 0, false, false, {}};
    ASSERT_TRUE(run(std::move(close)).status.is_ok());
    EXPECT_TRUE(run(IoRequest::write_len(3 * 64, 4)).status.is_ok());
}

TEST_F(ZnsDeviceTest, WriteStraddlingCapacityGapRejected)
{
    // zone_capacity (48) < zone_size (64): a write that fits inside
    // the zone's LBA span but crosses capacity must still be rejected,
    // and the [capacity, zone_size) gap reads back as zeros.
    ASSERT_TRUE(run(IoRequest::write_len(0, 44)).status.is_ok());
    auto r = run(IoRequest::write_len(44, 8)); // 44+8 = 52 <= 64, > 48
    EXPECT_EQ(r.status.code(), StatusCode::kZoneBoundary);
    // The rejected write must not have advanced the wp.
    EXPECT_EQ(dev_.zone_info(0).value().wp, 44u);
    ASSERT_TRUE(run(IoRequest::write_len(44, 4)).status.is_ok());
    EXPECT_EQ(dev_.zone_info(0).value().state, ZoneState::kFull);
    auto rd = run(IoRequest::read(50, 4));
    ASSERT_TRUE(rd.status.is_ok());
    for (uint8_t b : rd.data)
        EXPECT_EQ(b, 0);
}

TEST_F(ZnsDeviceTest, ResetOfEmptyZoneIsIdempotent)
{
    // Resetting a never-written zone succeeds without consuming an
    // active slot or disturbing zone accounting.
    auto r = run(IoRequest::zone_reset(2 * 64));
    ASSERT_TRUE(r.status.is_ok());
    auto zi = dev_.zone_info(2).value();
    EXPECT_EQ(zi.state, ZoneState::kEmpty);
    EXPECT_EQ(zi.wp, 2u * 64u);
    EXPECT_EQ(dev_.open_zone_count(), 0u);
    EXPECT_EQ(dev_.active_zone_count(), 0u);
    EXPECT_TRUE(run(IoRequest::zone_reset(2 * 64)).status.is_ok());
}

TEST_F(ZnsDeviceTest, PowerCutDropsVolatileCache)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(8, 1))).status);
    dev_.power_cut({PowerLossSpec::Policy::kDropCache, 1});
    dev_.reattach(&loop_);
    EXPECT_EQ(dev_.zone_info(0).value().wp, 0u);
    EXPECT_EQ(dev_.zone_info(0).value().state, ZoneState::kEmpty);
}

TEST_F(ZnsDeviceTest, FlushMakesDataDurable)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(8, 7))).status);
    ASSERT_TRUE(run(IoRequest::flush()).status);
    ASSERT_TRUE(run(IoRequest::write(8, pattern_data(4, 8))).status);
    dev_.power_cut({PowerLossSpec::Policy::kDropCache, 1});
    dev_.reattach(&loop_);
    auto zi = dev_.zone_info(0).value();
    EXPECT_EQ(zi.wp, 8u); // flushed prefix survives, tail lost
    auto r = run(IoRequest::read(0, 8));
    EXPECT_EQ(r.data, pattern_data(8, 7));
}

TEST_F(ZnsDeviceTest, FuaWriteDurableAtCompletion)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    auto fua = IoRequest::write(4, pattern_data(4, 2), /*fua=*/true);
    ASSERT_TRUE(run(std::move(fua)).status);
    dev_.power_cut({PowerLossSpec::Policy::kDropCache, 1});
    dev_.reattach(&loop_);
    // FUA persists the write and (NAND program order) the zone prefix.
    EXPECT_EQ(dev_.zone_info(0).value().wp, 8u);
}

TEST_F(ZnsDeviceTest, PreflushPersistsOtherZones)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    IoRequest req = IoRequest::write(64, pattern_data(4, 2));
    req.preflush = true;
    ASSERT_TRUE(run(std::move(req)).status);
    dev_.power_cut({PowerLossSpec::Policy::kDropCache, 1});
    dev_.reattach(&loop_);
    // Zone 0 was persisted by the preflush; zone 1's own write was not.
    EXPECT_EQ(dev_.zone_info(0).value().wp, 4u);
    EXPECT_EQ(dev_.zone_info(1).value().wp, 64u);
}

TEST_F(ZnsDeviceTest, RandomPowerLossKeepsPrefixAtAtomicGranularity)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        ZnsDevice dev(&loop_, small_config());
        ASSERT_TRUE(
            submit_sync(loop_, dev, IoRequest::write(0, pattern_data(4, 1)))
                .status.is_ok());
        ASSERT_TRUE(
            submit_sync(loop_, dev, IoRequest::flush()).status.is_ok());
        ASSERT_TRUE(submit_sync(loop_, dev,
                                IoRequest::write(4, pattern_data(12, 2)))
                        .status.is_ok());
        dev.power_cut({PowerLossSpec::Policy::kRandom, seed});
        dev.reattach(&loop_);
        uint64_t wp = dev.zone_info(0).value().wp;
        EXPECT_GE(wp, 4u) << "durable prefix must survive";
        EXPECT_LE(wp, 16u);
        EXPECT_EQ(wp % 4, 0u) << "survival at atomic granularity";
    }
}

TEST_F(ZnsDeviceTest, StaleCompletionsDropAfterPowerCut)
{
    // Submit a write but cut power before its completion fires.
    bool called = false;
    dev_.submit(IoRequest::write(0, pattern_data(4, 1)),
                [&](IoResult) { called = true; });
    dev_.power_cut({PowerLossSpec::Policy::kDropCache, 1});
    dev_.reattach(&loop_);
    loop_.run();
    EXPECT_FALSE(called) << "completion from before power cut leaked";
}

TEST_F(ZnsDeviceTest, FailedDeviceErrorsAllIo)
{
    dev_.fail();
    EXPECT_EQ(run(IoRequest::read(0, 1)).status.code(),
              StatusCode::kOffline);
    EXPECT_EQ(run(IoRequest::write_len(0, 1)).status.code(),
              StatusCode::kOffline);
    EXPECT_TRUE(dev_.failed());
}

TEST_F(ZnsDeviceTest, ReplaceRestoresFreshDevice)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(8, 1))).status);
    dev_.fail();
    dev_.replace();
    EXPECT_FALSE(dev_.failed());
    auto zi = dev_.zone_info(0).value();
    EXPECT_EQ(zi.state, ZoneState::kEmpty);
    EXPECT_EQ(zi.wp, 0u);
}

TEST_F(ZnsDeviceTest, TimingLargeWritesApproachBandwidth)
{
    // Issue 64 MiB of 1 MiB writes at high queue depth and check the
    // simulated throughput is near the configured write bandwidth.
    ZnsDeviceConfig cfg;
    cfg.nzones = 8;
    cfg.zone_size = 1 * kGiB / kSectorSize / 8;
    cfg.data_mode = DataMode::kNone;
    ZnsDevice dev(&loop_, cfg);
    Tick start = loop_.now();
    int outstanding = 0;
    uint64_t lba = 0;
    constexpr uint32_t kIoSectors = 256; // 1 MiB
    for (int i = 0; i < 64; ++i) {
        dev.submit(IoRequest::write_len(lba, kIoSectors),
                   [&](IoResult r) {
                       ASSERT_TRUE(r.status.is_ok());
                       outstanding--;
                   });
        lba += kIoSectors;
        outstanding++;
    }
    loop_.run();
    EXPECT_EQ(outstanding, 0);
    double mibs = mib_per_sec(64 * kMiB, loop_.now() - start);
    EXPECT_GT(mibs, 700.0);
    EXPECT_LT(mibs, 1100.0);
}

TEST_F(ZnsDeviceTest, ReadsFasterThanWrites)
{
    ZnsDeviceConfig cfg;
    cfg.nzones = 4;
    cfg.zone_size = 65536;
    cfg.data_mode = DataMode::kNone;
    ZnsDevice dev(&loop_, cfg);
    // Fill one zone.
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(submit_sync(loop_, dev,
                                IoRequest::write_len(i * 256u, 256))
                        .status.is_ok());
    }
    auto timed = [&](IoOp op) {
        Tick start = loop_.now();
        int left = 16;
        for (int i = 0; i < 16; ++i) {
            IoRequest r;
            r.op = op;
            r.slba = static_cast<uint64_t>(i) * 256;
            r.nsectors = 256;
            dev.submit(std::move(r), [&](IoResult res) {
                ASSERT_TRUE(res.status.is_ok());
                left--;
            });
        }
        loop_.run();
        EXPECT_EQ(left, 0);
        return loop_.now() - start;
    };
    Tick read_time = timed(IoOp::kRead);
    // Second batch of writes goes to zone 1.
    Tick wstart = loop_.now();
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(
            submit_sync(loop_, dev,
                        IoRequest::write_len(65536 + i * 256u, 256))
                .status.is_ok());
    }
    Tick write_time = loop_.now() - wstart;
    EXPECT_LT(read_time, write_time);
}

// Payload pages: 64 KiB = 16 sectors, so a 48-sector zone spans 3.
constexpr uint64_t kPage = PageStore::kPageBytes;
constexpr uint32_t kPageSectors = PageStore::kPageBytes / kSectorSize;

TEST_F(ZnsDeviceTest, OneSectorWriteAllocatesOnePage)
{
    EXPECT_EQ(dev_.resident_bytes(), 0u);
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(1, 1))).status);
    EXPECT_EQ(dev_.resident_bytes(), kPage) << "a page, not the zone";
    // Filling the rest of that page allocates nothing more.
    ASSERT_TRUE(
        run(IoRequest::write(1, pattern_data(kPageSectors - 1, 2))).status);
    EXPECT_EQ(dev_.resident_bytes(), kPage);
    ASSERT_TRUE(run(IoRequest::write(kPageSectors, pattern_data(1, 3))).status);
    EXPECT_EQ(dev_.resident_bytes(), 2 * kPage);
}

TEST_F(ZnsDeviceTest, ResetReturnsTheZonesPages)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(48, 1))).status);
    ASSERT_TRUE(run(IoRequest::write(64, pattern_data(4, 2))).status);
    EXPECT_EQ(dev_.resident_bytes(), 4 * kPage);
    ASSERT_TRUE(run(IoRequest::zone_reset(0)).status);
    EXPECT_EQ(dev_.resident_bytes(), kPage) << "zone 1 keeps its page";
    ASSERT_TRUE(run(IoRequest::zone_reset(64)).status);
    EXPECT_EQ(dev_.resident_bytes(), 0u);
    // A rewrite after the reset reads back only the new bytes.
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(2, 3))).status);
    auto r = run(IoRequest::read(0, 4));
    ASSERT_TRUE(r.status.is_ok());
    auto want = pattern_data(2, 3);
    want.resize(4 * kSectorSize, 0);
    EXPECT_EQ(r.data, want);
}

TEST_F(ZnsDeviceTest, ReplaceReturnsEveryPage)
{
    for (uint64_t zone = 0; zone < 3; ++zone) {
        ASSERT_TRUE(
            run(IoRequest::write(zone * 64, pattern_data(20, zone))).status);
    }
    EXPECT_EQ(dev_.resident_bytes(), 6 * kPage);
    dev_.replace();
    EXPECT_EQ(dev_.resident_bytes(), 0u);
}

TEST_F(ZnsDeviceTest, PowerCutRollbackZeroesTailAndFreesLaterPages)
{
    // Durable up to sector 4 (mid page 0), cached through sector 40.
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    ASSERT_TRUE(run(IoRequest::flush()).status);
    ASSERT_TRUE(run(IoRequest::write(4, pattern_data(36, 2))).status);
    EXPECT_EQ(dev_.resident_bytes(), 3 * kPage);
    dev_.power_cut({PowerLossSpec::Policy::kDropCache, 1});
    dev_.reattach(&loop_);
    ASSERT_EQ(dev_.zone_info(0).value().wp, 4u);
    EXPECT_EQ(dev_.resident_bytes(), kPage) << "pages past the wp freed";

    auto r = run(IoRequest::read(0, 40));
    ASSERT_TRUE(r.status.is_ok());
    auto want = pattern_data(4, 1);
    want.resize(40 * kSectorSize, 0);
    EXPECT_EQ(r.data, want) << "the rolled-back tail reads zeros";

    ASSERT_TRUE(run(IoRequest::write(4, pattern_data(2, 3))).status);
    r = run(IoRequest::read(0, 40));
    auto fresh = pattern_data(2, 3);
    std::copy(fresh.begin(), fresh.end(), want.begin() + 4 * kSectorSize);
    EXPECT_EQ(r.data, want) << "no stale bytes after the rewrite";
}

TEST_F(ZnsDeviceTest, CorruptOfUnwrittenSectorAllocatesNothing)
{
    dev_.corrupt(64, 4, 7);
    EXPECT_EQ(dev_.resident_bytes(), 0u);
    auto r = run(IoRequest::read(64, 4));
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.data, std::vector<uint8_t>(4 * kSectorSize, 0));

    // Written sectors do get corrupted.
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    dev_.corrupt(0, 1, 7);
    EXPECT_EQ(dev_.resident_bytes(), kPage);
    EXPECT_NE(run(IoRequest::read(0, 4)).data, pattern_data(4, 1));
}

TEST_F(ZnsDeviceTest, TimingOnlyDeviceHoldsNoPages)
{
    ZnsDeviceConfig cfg = small_config();
    cfg.data_mode = DataMode::kNone;
    ZnsDevice dev(&loop_, cfg);
    ASSERT_TRUE(submit_sync(loop_, dev, IoRequest::write(0, pattern_data(8, 1)))
                    .status.is_ok());
    EXPECT_EQ(dev.resident_bytes(), 0u);
}

TEST(PageStoreTest, RandomOpsMatchADenseModel)
{
    // Three pages and a short last one. Writes, zeroes, clears and
    // find() calls in random order and at random (sector and byte)
    // granularity; every read and every find() must agree with a plain
    // byte array, whatever each page's lazily filled tail holds.
    constexpr size_t kPage = PageStore::kPageBytes;
    constexpr size_t kBytes = 3 * kPage + 5000;
    PageStore store(kBytes);
    std::vector<uint8_t> model(kBytes, 0);
    Rng rng(2024);
    auto pick = [&](size_t max_len, size_t *off, size_t *len) {
        const bool sectors = rng.next_bool(0.5);
        const size_t unit = sectors ? kSectorSize : 1;
        *off = rng.next_below(kBytes / unit) * unit;
        *len = std::min(kBytes - *off, (1 + rng.next_below(max_len)) * unit);
    };
    uint32_t finds = 0, reads = 0;
    for (int step = 0; step < 4000; ++step) {
        const uint64_t op = rng.next_below(100);
        size_t off = 0, len = 0;
        if (op < 45) {
            pick(op < 10 ? 40 : 3 * kSectorSize, &off, &len);
            std::vector<uint8_t> src(len);
            for (uint8_t &b : src)
                b = static_cast<uint8_t>(rng.next() | 1);
            store.write(off, src.data(), len);
            std::memcpy(model.data() + off, src.data(), len);
        } else if (op < 60) {
            pick(op < 50 ? 40 : 3 * kSectorSize, &off, &len);
            store.zero(off, len);
            std::fill_n(model.begin() + static_cast<ptrdiff_t>(off), len, 0);
        } else if (op < 61) {
            store.clear();
            std::fill(model.begin(), model.end(), 0);
            EXPECT_EQ(store.resident_bytes(), 0u);
        } else if (op < 75) {
            off = rng.next_below(kBytes);
            uint8_t *p = store.find(off);
            const size_t sector_end = std::min(
                kBytes, (off / kSectorSize + 1) * size_t{kSectorSize});
            if (p != nullptr) {
                ++finds;
                ASSERT_EQ(0, std::memcmp(p, model.data() + off,
                                         sector_end - off))
                    << "find(" << off << ") at step " << step;
            }
        } else {
            pick(op < 85 ? 40 : 6 * kSectorSize, &off, &len);
            std::vector<uint8_t> got;
            store.read(off, len, got);
            ++reads;
            ASSERT_EQ(got.size(), len);
            ASSERT_EQ(0, std::memcmp(got.data(), model.data() + off, len))
                << "read(" << off << ", " << len << ") at step " << step;
        }
        ASSERT_LE(store.resident_bytes(), 4 * kPage);
    }
    EXPECT_GT(finds, 100u);
    EXPECT_GT(reads, 500u);
    std::vector<uint8_t> all;
    store.read(0, kBytes, all);
    EXPECT_EQ(all, model);
}

TEST(PageStoreTest, PartialFirstWriteZeroesOnlyTheGap)
{
    // Bytes past a page's mark are never stored: after a write at the
    // end of a fresh page, the gap before it and the tail after it
    // both read as zeros, and a zero() that reaches the mark lowers it.
    PageStore store(PageStore::kPageBytes);
    const std::vector<uint8_t> src(kSectorSize, 0xa5);
    store.write(2 * kSectorSize, src.data(), src.size());
    std::vector<uint8_t> got;
    store.read(0, PageStore::kPageBytes, got);
    std::vector<uint8_t> want(PageStore::kPageBytes, 0);
    std::fill_n(want.begin() + 2 * kSectorSize, kSectorSize, 0xa5);
    EXPECT_EQ(got, want);

    store.zero(2 * kSectorSize + 100, PageStore::kPageBytes / 2);
    std::fill_n(want.begin() + 2 * kSectorSize + 100, kSectorSize - 100, 0);
    got.clear();
    store.read(0, PageStore::kPageBytes, got);
    EXPECT_EQ(got, want);
    // Writing past the lowered mark still reads zeros in between.
    store.write(5 * kSectorSize, src.data(), src.size());
    std::fill_n(want.begin() + 5 * kSectorSize, kSectorSize, 0xa5);
    got.clear();
    store.read(0, PageStore::kPageBytes, got);
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace raizn
