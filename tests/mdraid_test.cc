/**
 * @file
 * Tests for the mdraid-like RAID-5 baseline: striping/parity math,
 * overwrites, stripe cache behaviour, RMW accounting, degraded mode,
 * and whole-device resync.
 */
#include <gtest/gtest.h>

#include <memory>

#include "common/kernels.h"
#include "common/rng.h"
#include "fault/fault_device.h"
#include "mdraid/md_volume.h"
#include "sim/event_loop.h"
#include "zns/conv_device.h"

namespace raizn {
namespace {

class MdRaidTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        make(128 * kKiB);
    }

    void
    make(uint64_t cache_bytes)
    {
        loop_ = std::make_unique<EventLoop>();
        devs_.clear();
        std::vector<BlockDevice *> ptrs;
        for (int i = 0; i < 5; ++i) {
            ConvDeviceConfig cfg;
            cfg.nsectors = 16 * kMiB / kSectorSize;
            cfg.pages_per_block = 64;
            cfg.name = "conv" + std::to_string(i);
            devs_.push_back(
                std::make_unique<ConvDevice>(loop_.get(), cfg));
            ptrs.push_back(devs_.back().get());
        }
        MdVolumeConfig mcfg;
        mcfg.chunk_sectors = 16;
        mcfg.stripe_cache_bytes = cache_bytes;
        vol_ = std::make_unique<MdVolume>(loop_.get(), ptrs, mcfg);
    }

    IoResult
    write(uint64_t lba, std::vector<uint8_t> data)
    {
        IoResult out;
        bool done = false;
        vol_->write(lba, std::move(data), {}, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop_->run_until_pred([&] { return done; });
        return out;
    }

    IoResult
    read(uint64_t lba, uint32_t n)
    {
        IoResult out;
        bool done = false;
        vol_->read(lba, n, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop_->run_until_pred([&] { return done; });
        return out;
    }

    /// Same array, but with a fault-injecting decorator in front of
    /// every member so tests can plant transient device errors.
    void
    make_faulty()
    {
        loop_ = std::make_unique<EventLoop>();
        devs_.clear();
        fdevs_.clear();
        std::vector<BlockDevice *> ptrs;
        for (int i = 0; i < 5; ++i) {
            ConvDeviceConfig cfg;
            cfg.nsectors = 16 * kMiB / kSectorSize;
            cfg.pages_per_block = 64;
            cfg.name = "conv" + std::to_string(i);
            devs_.push_back(
                std::make_unique<ConvDevice>(loop_.get(), cfg));
            fdevs_.push_back(std::make_unique<FaultInjectingDevice>(
                loop_.get(), devs_.back().get(), FaultConfig{}));
            ptrs.push_back(fdevs_.back().get());
        }
        MdVolumeConfig mcfg;
        mcfg.chunk_sectors = 16;
        mcfg.stripe_cache_bytes = 128 * kKiB;
        vol_ = std::make_unique<MdVolume>(loop_.get(), ptrs, mcfg);
    }

    std::unique_ptr<EventLoop> loop_;
    std::vector<std::unique_ptr<ConvDevice>> devs_;
    std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs_;
    std::unique_ptr<MdVolume> vol_;
};

TEST_F(MdRaidTest, CapacityIsDMinusOne)
{
    EXPECT_EQ(vol_->capacity(),
              4ull * devs_[0]->geometry().nsectors / 16 * 16);
    EXPECT_EQ(vol_->stripe_sectors(), 64u);
}

TEST_F(MdRaidTest, RoundTripAndOverwrite)
{
    ASSERT_TRUE(write(0, pattern_data(64, 1)).status.is_ok());
    auto r = read(0, 64);
    EXPECT_EQ(r.data, pattern_data(64, 1));
    // Overwrite anywhere — this is a block device.
    ASSERT_TRUE(write(16, pattern_data(16, 2)).status.is_ok());
    r = read(16, 16);
    EXPECT_EQ(r.data, pattern_data(16, 2));
    r = read(0, 16);
    EXPECT_EQ(r.data, pattern_data(16, 1));
}

TEST_F(MdRaidTest, RandomOffsetsWork)
{
    ASSERT_TRUE(write(1000, pattern_data(8, 3)).status.is_ok());
    ASSERT_TRUE(write(37, pattern_data(3, 4)).status.is_ok());
    EXPECT_EQ(read(1000, 8).data, pattern_data(8, 3));
    EXPECT_EQ(read(37, 3).data, pattern_data(3, 4));
}

TEST_F(MdRaidTest, ParityOnDiskIsXorOfChunks)
{
    auto data = pattern_data(64, 9);
    ASSERT_TRUE(write(0, data).status.is_ok());
    uint32_t pdev = vol_->parity_dev(0);
    auto pr = submit_sync(*loop_, *devs_[pdev], IoRequest::read(0, 16));
    ASSERT_TRUE(pr.status.is_ok());
    std::vector<uint8_t> expect(16 * kSectorSize, 0);
    for (uint32_t k = 0; k < 4; ++k)
        xor_bytes(expect.data(), data.data() + k * 16 * kSectorSize,
                  expect.size());
    EXPECT_EQ(pr.data, expect);
}

TEST_F(MdRaidTest, PartialWriteKeepsParityConsistent)
{
    // Full stripe, then overwrite one chunk; parity must track it.
    ASSERT_TRUE(write(0, pattern_data(64, 1)).status.is_ok());
    ASSERT_TRUE(write(16, pattern_data(16, 2)).status.is_ok());
    // Verify via degraded reconstruction of the overwritten chunk.
    uint32_t victim = vol_->data_dev(0, 1);
    vol_->mark_device_failed(victim);
    EXPECT_EQ(read(16, 16).data, pattern_data(16, 2));
    EXPECT_GT(vol_->stats().degraded_reads, 0u);
}

TEST_F(MdRaidTest, StripeCacheAvoidsRmwReads)
{
    // Writing the stripe in pieces with a warm cache needs no RMW
    // prereads.
    ASSERT_TRUE(write(0, pattern_data(64, 1)).status.is_ok());
    uint64_t rmw0 = vol_->stats().rmw_reads;
    ASSERT_TRUE(write(0, pattern_data(8, 2)).status.is_ok());
    EXPECT_EQ(vol_->stats().rmw_reads, rmw0) << "cache hit: no prereads";
}

TEST_F(MdRaidTest, ColdPartialWriteDoesRmw)
{
    // Tiny cache (1 stripe) forces eviction; partial write to an
    // evicted stripe must preread.
    make(1); // capacity_bytes=1 -> 1 stripe
    ASSERT_TRUE(write(0, pattern_data(64, 1)).status.is_ok());
    ASSERT_TRUE(write(64, pattern_data(64, 2)).status.is_ok()); // evicts
    uint64_t rmw0 = vol_->stats().rmw_reads;
    ASSERT_TRUE(write(4, pattern_data(4, 3)).status.is_ok());
    EXPECT_GT(vol_->stats().rmw_reads, rmw0);
    // Parity still consistent after the RMW.
    uint32_t victim = vol_->data_dev(0, 0);
    vol_->mark_device_failed(victim);
    EXPECT_EQ(read(4, 4).data, pattern_data(4, 3));
    EXPECT_EQ(read(0, 4).data, pattern_data(4, 1));
}

TEST_F(MdRaidTest, DegradedWriteStillRecoverable)
{
    uint32_t victim = vol_->data_dev(0, 0);
    vol_->mark_device_failed(victim);
    ASSERT_TRUE(write(0, pattern_data(64, 5)).status.is_ok());
    // All data readable (the failed chunk reconstructs from parity).
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 5));
}

TEST_F(MdRaidTest, MarkFailedRejectsOutOfRangeDevice)
{
    ASSERT_TRUE(write(0, pattern_data(64, 9)).status.is_ok());
    vol_->mark_device_failed(vol_->num_devices());
    vol_->mark_device_failed(~0u);
    EXPECT_EQ(vol_->failed_device(), -1);
    EXPECT_FALSE(vol_->degraded());
    // A real member can still fail afterwards.
    vol_->mark_device_failed(2);
    EXPECT_EQ(vol_->failed_device(), 2);
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 9));
}

TEST_F(MdRaidTest, ResyncRestoresRedundancyAndIsFullDevice)
{
    ASSERT_TRUE(write(0, pattern_data(64, 7)).status.is_ok());
    uint32_t victim = vol_->data_dev(0, 1);
    vol_->mark_device_failed(victim);
    devs_[victim]->replace();
    Status st;
    bool done = false;
    vol_->rebuild_device(victim, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    loop_->run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(vol_->failed_device(), -1);
    // md resyncs the whole device regardless of fill (Fig. 12).
    EXPECT_EQ(vol_->stats().resynced_sectors,
              devs_[victim]->geometry().nsectors / 16 * 16);
    // Data intact and redundancy restored.
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 7));
    uint32_t second = (victim + 1) % 5;
    vol_->mark_device_failed(second);
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 7));
}

TEST_F(MdRaidTest, ResyncRetriesTransientReadError)
{
    make_faulty();
    ASSERT_TRUE(write(0, pattern_data(64, 11)).status.is_ok());
    uint32_t victim = vol_->data_dev(0, 1);
    vol_->mark_device_failed(victim);
    devs_[victim]->replace();

    // The first resync source read on a surviving member fails once;
    // the retry layer must absorb it and resync must still succeed.
    uint32_t source = (victim + 1) % 5;
    fdevs_[source]->inject_once(IoOp::kRead, FaultKind::kIoError);

    Status st;
    bool done = false;
    vol_->rebuild_device(victim, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    loop_->run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(vol_->failed_device(), -1);
    EXPECT_GT(vol_->stats().io_retries, 0u);
    EXPECT_EQ(fdevs_[source]->fault_stats().read_errors, 1u);

    // Redundancy really restored: drop another member and read.
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 11));
    vol_->mark_device_failed(source);
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 11));
}

TEST_F(MdRaidTest, WritebackRetriesTransientWriteError)
{
    make_faulty();
    // Plant a one-shot write error on a data member of stripe 0: the
    // stripe-cache writeback hits it, retries, and the write still
    // lands on every chunk (array stays healthy, parity consistent).
    uint32_t target = vol_->data_dev(0, 2);
    fdevs_[target]->inject_once(IoOp::kWrite, FaultKind::kIoError);
    ASSERT_TRUE(write(0, pattern_data(64, 13)).status.is_ok());
    EXPECT_GT(vol_->stats().io_retries, 0u);
    EXPECT_EQ(vol_->stats().dev_errors, 0u);
    EXPECT_EQ(vol_->failed_device(), -1);
    EXPECT_EQ(fdevs_[target]->fault_stats().write_errors, 1u);

    EXPECT_EQ(read(0, 64).data, pattern_data(64, 13));
    // The chunk behind the injected error is recoverable from parity.
    vol_->mark_device_failed(target);
    EXPECT_EQ(read(0, 64).data, pattern_data(64, 13));
}

TEST_F(MdRaidTest, GcSlowsMdraidOverTime)
{
    // Timing-only sanity at small scale: random overwrite churn after
    // a full fill must take longer per pass than the initial fill.
    loop_ = std::make_unique<EventLoop>();
    devs_.clear();
    std::vector<BlockDevice *> ptrs;
    for (int i = 0; i < 5; ++i) {
        ConvDeviceConfig cfg;
        cfg.nsectors = 16 * kMiB / kSectorSize;
        cfg.pages_per_block = 64;
        cfg.op_ratio = 0.08;
        cfg.data_mode = DataMode::kNone;
        devs_.push_back(std::make_unique<ConvDevice>(loop_.get(), cfg));
        ptrs.push_back(devs_.back().get());
    }
    MdVolumeConfig mcfg;
    vol_ = std::make_unique<MdVolume>(loop_.get(), ptrs, mcfg);

    auto seq_pass = [&]() -> Tick {
        Tick start = loop_->now();
        for (uint64_t lba = 0; lba + 64 <= vol_->capacity(); lba += 64) {
            bool done = false;
            vol_->write_len(lba, 64, {}, [&](IoResult) { done = true; });
            loop_->run_until_pred([&] { return done; });
        }
        return loop_->now() - start;
    };
    Tick first = seq_pass();
    // Random single-chunk overwrites mix lifetimes inside erase blocks.
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        uint64_t lba = rng.next_below(vol_->capacity() / 16) * 16;
        bool done = false;
        vol_->write_len(lba, 16, {}, [&](IoResult) { done = true; });
        loop_->run_until_pred([&] { return done; });
    }
    Tick churn = seq_pass();
    EXPECT_GT(churn, first) << "GC must slow the array";
}

} // namespace
} // namespace raizn
