/**
 * @file
 * Unit tests for RAIZN address translation (paper §4.1).
 */
#include <gtest/gtest.h>

#include <set>

#include "raizn/layout.h"

namespace raizn {
namespace {

Layout
make_layout(uint32_t ndev = 5, uint32_t su = 16, uint32_t md = 3)
{
    RaiznConfig cfg;
    cfg.num_devices = ndev;
    cfg.su_sectors = su;
    cfg.md_zones_per_device = md;
    DeviceGeometry g;
    g.zoned = true;
    g.nzones = 19;
    g.zone_size = 1024;
    g.zone_capacity = 1024;
    g.nsectors = g.zone_size * g.nzones;
    return Layout(cfg, g);
}

TEST(LayoutTest, GeometryDerivation)
{
    Layout l = make_layout();
    EXPECT_EQ(l.num_devices(), 5u);
    EXPECT_EQ(l.data_units(), 4u);
    EXPECT_EQ(l.stripe_sectors(), 64u);
    EXPECT_EQ(l.num_logical_zones(), 16u); // 19 - 3 metadata
    EXPECT_EQ(l.logical_zone_cap(), 4096u); // 4 * 1024
    EXPECT_EQ(l.logical_capacity(), 4096u * 16);
    EXPECT_EQ(l.stripes_per_zone(), 64u);
    EXPECT_EQ(l.first_md_zone(), 16u);
    EXPECT_EQ(l.md_zone_start(0), 16u * 1024);
}

TEST(LayoutTest, ParityRotatesEveryStripe)
{
    Layout l = make_layout();
    std::set<uint32_t> seen;
    for (uint64_t s = 0; s < 5; ++s)
        seen.insert(l.parity_dev(0, s));
    EXPECT_EQ(seen.size(), 5u) << "parity must rotate across devices";
    // And differs between zones for the same stripe (reset-log
    // rotation, §5.2).
    EXPECT_NE(l.parity_dev(0, 0), l.parity_dev(1, 0));
}

TEST(LayoutTest, DataDevsExcludeParityAndCoverRest)
{
    Layout l = make_layout();
    for (uint64_t s = 0; s < 10; ++s) {
        uint32_t p = l.parity_dev(2, s);
        std::set<uint32_t> devs;
        for (uint32_t k = 0; k < l.data_units(); ++k) {
            uint32_t d = l.data_dev(2, s, k);
            EXPECT_NE(d, p);
            devs.insert(d);
        }
        EXPECT_EQ(devs.size(), l.data_units());
    }
}

TEST(LayoutTest, DataPosRoundTrips)
{
    Layout l = make_layout();
    for (uint64_t s = 0; s < 8; ++s) {
        for (uint32_t k = 0; k < l.data_units(); ++k) {
            uint32_t d = l.data_dev(1, s, k);
            EXPECT_EQ(l.data_pos_of_dev(1, s, d), static_cast<int>(k));
        }
        EXPECT_EQ(l.data_pos_of_dev(1, s, l.parity_dev(1, s)), -1);
    }
}

TEST(LayoutTest, MapSectorArithmetic)
{
    Layout l = make_layout();
    // First sector of zone 0 lives at PBA 0 on the first data device
    // of stripe 0.
    uint32_t dev;
    uint64_t pba;
    l.map_sector(0, &dev, &pba);
    EXPECT_EQ(dev, l.data_dev(0, 0, 0));
    EXPECT_EQ(pba, 0u);

    // Sector su lands on the second data unit, same slot offset 0.
    l.map_sector(16, &dev, &pba);
    EXPECT_EQ(dev, l.data_dev(0, 0, 1));
    EXPECT_EQ(pba, 0u);

    // One full stripe later: slot advances by su on the devices.
    l.map_sector(64, &dev, &pba);
    EXPECT_EQ(dev, l.data_dev(0, 1, 0));
    EXPECT_EQ(pba, 16u);

    // Zone 1 maps into physical zone 1.
    l.map_sector(4096, &dev, &pba);
    EXPECT_EQ(dev, l.data_dev(1, 0, 0));
    EXPECT_EQ(pba, 1024u);
}

TEST(LayoutTest, MapRangeSplitsAtStripeUnits)
{
    Layout l = make_layout();
    // 40 sectors starting mid-unit: 8 + 16 + 16 split.
    ExtentList exts;
    l.map_range(8, 40, &exts);
    ASSERT_EQ(exts.size(), 3u);
    EXPECT_EQ(exts[0].nsectors, 8u);
    EXPECT_EQ(exts[1].nsectors, 16u);
    EXPECT_EQ(exts[2].nsectors, 16u);
    EXPECT_EQ(exts[0].lba, 8u);
    EXPECT_EQ(exts[1].lba, 16u);
    EXPECT_EQ(exts[2].lba, 32u);
    // Consecutive units land on different devices.
    EXPECT_NE(exts[0].dev, exts[1].dev);
}

TEST(LayoutTest, MapRangeCoversWholeZone)
{
    Layout l = make_layout();
    ExtentList exts;
    l.map_range(0, l.logical_zone_cap(), &exts);
    uint64_t total = 0;
    for (const auto &e : exts)
        total += e.nsectors;
    EXPECT_EQ(total, l.logical_zone_cap());
    // Each device receives exactly zone_capacity data+0 parity sectors?
    // No: data extents only — per device, data sectors are
    // (D-1)/D... just verify extents never overlap per device.
    std::map<uint32_t, std::set<uint64_t>> used;
    for (const auto &e : exts) {
        for (uint32_t i = 0; i < e.nsectors; ++i) {
            EXPECT_TRUE(used[e.dev].insert(e.pba + i).second)
                << "overlapping extents on device " << e.dev;
        }
    }
}

TEST(LayoutTest, ProgressFromDevice)
{
    Layout l = make_layout();
    // No sectors -> no progress.
    EXPECT_EQ(l.progress_from_device(0, 0, 0), 0u);
    // First data device of stripe 0 with 4 sectors: logical fill 4.
    uint32_t d0 = l.data_dev(0, 0, 0);
    EXPECT_EQ(l.progress_from_device(0, d0, 4), 4u);
    // Full first slot: fill = su.
    EXPECT_EQ(l.progress_from_device(0, d0, 16), 16u);
    // Second data device with full slot: fill = 2*su.
    uint32_t d1 = l.data_dev(0, 0, 1);
    EXPECT_EQ(l.progress_from_device(0, d1, 16), 32u);
    // Parity present for stripe 0 implies the whole stripe.
    uint32_t p = l.parity_dev(0, 0);
    EXPECT_EQ(l.progress_from_device(0, p, 16), 64u);
}

TEST(LayoutTest, MinimumArrayThreeDevices)
{
    Layout l = make_layout(3);
    EXPECT_EQ(l.data_units(), 2u);
    EXPECT_EQ(l.stripe_sectors(), 32u);
    std::set<uint32_t> seen;
    for (uint64_t s = 0; s < 3; ++s)
        seen.insert(l.parity_dev(0, s));
    EXPECT_EQ(seen.size(), 3u);
}

} // namespace
} // namespace raizn
