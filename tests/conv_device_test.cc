/**
 * @file
 * Unit tests for the conventional SSD emulation: block semantics,
 * FTL mapping, garbage collection onset and write amplification, and
 * the payload page lifetime.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/event_loop.h"
#include "zns/conv_device.h"

namespace raizn {
namespace {

ConvDeviceConfig
small_config()
{
    ConvDeviceConfig cfg;
    cfg.nsectors = 16 * kMiB / kSectorSize; // 4096 pages
    cfg.op_ratio = 0.10;
    cfg.pages_per_block = 64;
    cfg.gc_low_blocks = 3;
    cfg.gc_high_blocks = 6;
    return cfg;
}

class ConvDeviceTest : public ::testing::Test
{
  protected:
    ConvDeviceTest() : dev_(&loop_, small_config()) {}

    IoResult
    run(IoRequest req)
    {
        return submit_sync(loop_, dev_, std::move(req));
    }

    EventLoop loop_;
    ConvDevice dev_;
};

TEST_F(ConvDeviceTest, PayloadMustAgreeWithNsectors)
{
    IoRequest bad;
    bad.op = IoOp::kWrite;
    bad.slba = 0;
    bad.nsectors = 2;
    bad.data = std::vector<uint8_t>(kSectorSize - 1, 0xcd);
    EXPECT_EQ(run(std::move(bad)).status.code(),
              StatusCode::kInvalidArgument);

    IoRequest wrong;
    wrong.op = IoOp::kWrite;
    wrong.slba = 0;
    wrong.nsectors = 8;
    wrong.data = pattern_data(4, 1);
    EXPECT_EQ(run(std::move(wrong)).status.code(),
              StatusCode::kInvalidArgument);

    // Timing-only (empty payload) and matching payloads still work.
    EXPECT_TRUE(run(IoRequest::write_len(0, 8)).status.is_ok());
    EXPECT_TRUE(run(IoRequest::write(0, pattern_data(8, 2))).status.is_ok());
}

TEST_F(ConvDeviceTest, RandomWritesAndOverwritesAllowed)
{
    ASSERT_TRUE(run(IoRequest::write(100, pattern_data(4, 1))).status);
    ASSERT_TRUE(run(IoRequest::write(50, pattern_data(4, 2))).status);
    // Overwrite is legal on a block device.
    ASSERT_TRUE(run(IoRequest::write(100, pattern_data(4, 3))).status);
    auto r = run(IoRequest::read(100, 4));
    EXPECT_EQ(r.data, pattern_data(4, 3));
    r = run(IoRequest::read(50, 4));
    EXPECT_EQ(r.data, pattern_data(4, 2));
}

TEST_F(ConvDeviceTest, OutOfRangeRejected)
{
    uint64_t n = dev_.geometry().nsectors;
    EXPECT_EQ(run(IoRequest::write_len(n - 1, 2)).status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(run(IoRequest::read(n, 1)).status.code(),
              StatusCode::kInvalidArgument);
}

TEST_F(ConvDeviceTest, ZoneOpsNotSupported)
{
    EXPECT_EQ(run(IoRequest::zone_reset(0)).status.code(),
              StatusCode::kNotSupported);
    EXPECT_FALSE(dev_.zone_info(0).is_ok());
}

TEST_F(ConvDeviceTest, NoGcBeforeFirstFill)
{
    // Write 50% of the device once: plenty of free blocks remain.
    uint64_t half = dev_.geometry().nsectors / 2;
    for (uint64_t lba = 0; lba < half; lba += 64)
        ASSERT_TRUE(run(IoRequest::write_len(lba, 64)).status.is_ok());
    EXPECT_EQ(dev_.stats().gc_page_copies, 0u);
    EXPECT_DOUBLE_EQ(dev_.ftl().write_amplification(), 1.0);
}

TEST_F(ConvDeviceTest, OverwriteTriggersGc)
{
    uint64_t n = dev_.geometry().nsectors;
    // Fill the device fully, then overwrite randomly at page
    // granularity; mixed-validity victims force GC copies (OP is 10%).
    for (uint64_t lba = 0; lba < n; lba += 64)
        ASSERT_TRUE(run(IoRequest::write_len(lba, 64)).status.is_ok());
    Rng rng(5);
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t lba = rng.next_below(n);
        ASSERT_TRUE(run(IoRequest::write_len(lba, 1)).status.is_ok());
    }
    EXPECT_GT(dev_.stats().gc_page_copies, 0u);
    EXPECT_GT(dev_.stats().gc_erases, 0u);
    EXPECT_GT(dev_.ftl().write_amplification(), 1.0);
}

TEST_F(ConvDeviceTest, SequentialBlockAlignedOverwriteAvoidsCopies)
{
    // Whole-block invalidation leaves zero-valid victims: GC erases
    // without copying (write amp stays 1).
    uint64_t n = dev_.geometry().nsectors;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t lba = 0; lba < n; lba += 64)
            ASSERT_TRUE(run(IoRequest::write_len(lba, 64)).status.is_ok());
    }
    EXPECT_EQ(dev_.stats().gc_page_copies, 0u);
    EXPECT_DOUBLE_EQ(dev_.ftl().write_amplification(), 1.0);
}

TEST_F(ConvDeviceTest, SequentialOverwriteHasLowWriteAmp)
{
    // Pure sequential overwrite invalidates whole blocks: WA stays
    // near 1 even under GC.
    uint64_t n = dev_.geometry().nsectors;
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t lba = 0; lba < n; lba += 64)
            ASSERT_TRUE(run(IoRequest::write_len(lba, 64)).status.is_ok());
    }
    EXPECT_LT(dev_.ftl().write_amplification(), 1.2);
}

TEST_F(ConvDeviceTest, InterleavedStreamsRaiseWriteAmp)
{
    // Mimic Fig. 10's first phase: 5 interleaved sequential streams mix
    // lifetimes within erase blocks, so overwriting one region later
    // must copy the other streams' still-valid pages.
    uint64_t n = dev_.geometry().nsectors;
    uint64_t region = n / 5;
    // Interleave 4-sector writes across the 5 regions.
    for (uint64_t off = 0; off < region; off += 4) {
        for (int t = 0; t < 5; ++t) {
            uint64_t lba = static_cast<uint64_t>(t) * region + off;
            ASSERT_TRUE(run(IoRequest::write_len(lba, 4)).status.is_ok());
        }
    }
    // Now overwrite region 0 twice sequentially.
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t lba = 0; lba < region; lba += 4)
            ASSERT_TRUE(run(IoRequest::write_len(lba, 4)).status.is_ok());
    }
    EXPECT_GT(dev_.ftl().write_amplification(), 1.5);
}

TEST_F(ConvDeviceTest, GcSlowsDownUserWrites)
{
    ConvDeviceConfig cfg = small_config();
    cfg.data_mode = DataMode::kNone;
    ConvDevice dev(&loop_, cfg);
    uint64_t n = dev.geometry().nsectors;

    auto fill_pass = [&]() -> Tick {
        Tick start = loop_.now();
        for (uint64_t lba = 0; lba < n; lba += 64) {
            EXPECT_TRUE(submit_sync(loop_, dev,
                                    IoRequest::write_len(lba, 64))
                            .status.is_ok());
        }
        return loop_.now() - start;
    };
    // First pass fills the device with no GC; the page-granularity
    // random overwrite pass then pays heavy GC copies.
    Tick clean = fill_pass();
    Rng rng(11);
    Tick start = loop_.now();
    for (uint64_t i = 0; i < n; i += 4) {
        uint64_t lba = rng.next_below(n - 4);
        ASSERT_TRUE(submit_sync(loop_, dev, IoRequest::write_len(lba, 4))
                        .status.is_ok());
    }
    Tick dirty = loop_.now() - start;
    EXPECT_GT(dirty, clean * 2) << "GC regime must slow user writes";
}

TEST_F(ConvDeviceTest, TrimDropsMappings)
{
    ASSERT_TRUE(run(IoRequest::write_len(0, 64)).status.is_ok());
    EXPECT_TRUE(dev_.ftl().is_mapped(0));
    dev_.trim(0, 64);
    EXPECT_FALSE(dev_.ftl().is_mapped(0));
}

TEST_F(ConvDeviceTest, FailAndReplace)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    dev_.fail();
    EXPECT_EQ(run(IoRequest::read(0, 4)).status.code(),
              StatusCode::kOffline);
    dev_.replace();
    auto r = run(IoRequest::read(0, 4));
    ASSERT_TRUE(r.status.is_ok());
    for (uint8_t b : r.data)
        EXPECT_EQ(b, 0);
}

constexpr uint64_t kPage = PageStore::kPageBytes;
constexpr uint32_t kPageSectors = PageStore::kPageBytes / kSectorSize;

TEST_F(ConvDeviceTest, OneSectorWriteAllocatesOnePage)
{
    EXPECT_EQ(dev_.resident_bytes(), 0u);
    ASSERT_TRUE(run(IoRequest::write(1000, pattern_data(1, 1))).status);
    EXPECT_EQ(dev_.resident_bytes(), kPage) << "a page, not the device";
    // A write straddling a page boundary allocates both pages.
    ASSERT_TRUE(run(IoRequest::write(kPageSectors - 1, pattern_data(2, 2)))
                    .status);
    EXPECT_EQ(dev_.resident_bytes(), 3 * kPage);
    auto r = run(IoRequest::read(kPageSectors - 2, 4));
    ASSERT_TRUE(r.status.is_ok());
    std::vector<uint8_t> want(kSectorSize, 0);
    auto data = pattern_data(2, 2);
    want.insert(want.end(), data.begin(), data.end());
    want.resize(4 * kSectorSize, 0);
    EXPECT_EQ(r.data, want);
}

TEST_F(ConvDeviceTest, ZeroPayloadWriteOverWholePageFreesIt)
{
    ASSERT_TRUE(
        run(IoRequest::write(0, pattern_data(2 * kPageSectors, 1))).status);
    EXPECT_EQ(dev_.resident_bytes(), 2 * kPage);
    // A partial zero write clears bytes but keeps the page.
    ASSERT_TRUE(run(IoRequest::write_len(kPageSectors, 1)).status);
    EXPECT_EQ(dev_.resident_bytes(), 2 * kPage);
    ASSERT_TRUE(run(IoRequest::write_len(0, kPageSectors)).status);
    EXPECT_EQ(dev_.resident_bytes(), kPage);

    auto r = run(IoRequest::read(0, 2 * kPageSectors));
    ASSERT_TRUE(r.status.is_ok());
    auto want = pattern_data(2 * kPageSectors, 1);
    std::fill(want.begin(), want.begin() + (kPageSectors + 1) * kSectorSize,
              0);
    EXPECT_EQ(r.data, want);
}

TEST_F(ConvDeviceTest, ReplaceReturnsEveryPage)
{
    ASSERT_TRUE(run(IoRequest::write(0, pattern_data(4, 1))).status);
    ASSERT_TRUE(run(IoRequest::write(4000, pattern_data(4, 2))).status);
    EXPECT_EQ(dev_.resident_bytes(), 2 * kPage);
    dev_.replace();
    EXPECT_EQ(dev_.resident_bytes(), 0u);
}

} // namespace
} // namespace raizn
