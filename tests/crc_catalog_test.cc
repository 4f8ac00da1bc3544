/**
 * @file
 * Unit tests for the per-sector CRC catalog shared by RaiznVolume and
 * ZonedEngine: sizing on first record, record and verify, invalidation
 * by a null payload, clear, the per-unit coverage/mismatch query, and
 * the no-catalog case (nothing recorded verifies as ok).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "array/crc_catalog.h"
#include "common/units.h"

namespace raizn {
namespace {

std::vector<uint8_t>
sectors(uint32_t n, uint8_t fill)
{
    std::vector<uint8_t> v(static_cast<size_t>(n) * kSectorSize);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<uint8_t>(fill + i * 7);
    return v;
}

TEST(CrcCatalogTest, NoCatalogVerifiesOk)
{
    CrcCatalog cat(32);
    std::vector<uint8_t> d = sectors(4, 1);
    EXPECT_TRUE(cat.verify(0, d.data(), 4));
    CrcCatalog::Coverage c = cat.check(0, d.data(), 4);
    EXPECT_EQ(c.covered, 0u);
    EXPECT_EQ(c.mismatched, 0u);
    // Invalidating before anything was recorded is a no-op.
    cat.record(0, nullptr, 4);
    EXPECT_TRUE(cat.verify(0, d.data(), 4));
}

TEST(CrcCatalogTest, FirstRecordSizesWholeZone)
{
    CrcCatalog cat(32);
    std::vector<uint8_t> a = sectors(4, 1);
    cat.record(0, a.data(), 4);
    // Sectors far past the first record are addressable and, never
    // recorded, verify as ok.
    std::vector<uint8_t> b = sectors(4, 9);
    EXPECT_EQ(cat.check(28, b.data(), 4).covered, 0u);
    cat.record(28, b.data(), 4);
    EXPECT_EQ(cat.check(28, b.data(), 4).covered, 4u);
    EXPECT_TRUE(cat.verify(28, b.data(), 4));
}

TEST(CrcCatalogTest, RecordThenVerifyCatchesFlippedSector)
{
    CrcCatalog cat(16);
    std::vector<uint8_t> d = sectors(8, 3);
    cat.record(4, d.data(), 8);
    EXPECT_TRUE(cat.verify(4, d.data(), 8));
    // A sub-range verifies against its own sectors.
    EXPECT_TRUE(cat.verify(6, d.data() + 2 * kSectorSize, 3));
    d[5 * kSectorSize + 17] ^= 0x40;
    EXPECT_FALSE(cat.verify(4, d.data(), 8));
    EXPECT_TRUE(cat.verify(4, d.data(), 5)); // the flip is in sector 5
    // A null payload (timing-only read) has nothing to check.
    EXPECT_TRUE(cat.verify(4, nullptr, 8));
}

TEST(CrcCatalogTest, NullPayloadInvalidatesSectors)
{
    CrcCatalog cat(16);
    std::vector<uint8_t> d = sectors(8, 5);
    cat.record(0, d.data(), 8);
    cat.record(2, nullptr, 3);
    std::vector<uint8_t> other = sectors(8, 77);
    CrcCatalog::Coverage c = cat.check(0, other.data(), 8);
    EXPECT_EQ(c.covered, 5u);
    EXPECT_EQ(c.mismatched, 5u);
    // Overwrite the valid sectors so only invalidated ones differ.
    std::vector<uint8_t> mixed = d;
    std::copy(other.begin() + 2 * kSectorSize,
              other.begin() + 5 * kSectorSize,
              mixed.begin() + 2 * kSectorSize);
    EXPECT_TRUE(cat.verify(0, mixed.data(), 8));
}

TEST(CrcCatalogTest, ClearForgetsEverything)
{
    CrcCatalog cat(16);
    std::vector<uint8_t> d = sectors(16, 2);
    cat.record(0, d.data(), 16);
    cat.clear();
    std::vector<uint8_t> other = sectors(16, 200);
    EXPECT_TRUE(cat.verify(0, other.data(), 16));
    EXPECT_EQ(cat.check(0, other.data(), 16).covered, 0u);
    // The catalog sizes itself again on the next record.
    cat.record(12, d.data(), 4);
    EXPECT_EQ(cat.check(0, d.data(), 16).covered, 4u);
}

TEST(CrcCatalogTest, CoverageQueryCountsPerUnit)
{
    // Two 4-sector units: unit 0 fully recorded, unit 1 half.
    CrcCatalog cat(8);
    std::vector<uint8_t> d = sectors(8, 11);
    cat.record(0, d.data(), 6);
    CrcCatalog::Coverage u0 = cat.check(0, d.data(), 4);
    CrcCatalog::Coverage u1 =
        cat.check(4, d.data() + 4 * kSectorSize, 4);
    EXPECT_EQ(u0.covered, 4u);
    EXPECT_EQ(u0.mismatched, 0u);
    EXPECT_EQ(u1.covered, 2u);
    EXPECT_EQ(u1.mismatched, 0u);
    // Corrupt one covered and one uncovered sector of unit 1: only the
    // covered one counts.
    d[4 * kSectorSize] ^= 1;
    d[7 * kSectorSize] ^= 1;
    u1 = cat.check(4, d.data() + 4 * kSectorSize, 4);
    EXPECT_EQ(u1.covered, 2u);
    EXPECT_EQ(u1.mismatched, 1u);
}

} // namespace
} // namespace raizn
