/**
 * @file
 * Unit tests for metadata encoding (Fig. 3), superblock, generation
 * counters, stripe buffers / parity math, persistence bitmap, and the
 * relocation map.
 */
#include <gtest/gtest.h>

#include "common/kernels.h"
#include "common/rng.h"
#include "obs/prof/prof.h"
#include "raizn/gen_counter.h"
#include "raizn/metadata.h"
#include "raizn/persist_bitmap.h"
#include "raizn/relocation.h"
#include "raizn/stripe_buffer.h"
#include "raizn/superblock.h"
#include "zns/block_device.h"

namespace raizn {
namespace {

TEST(MdEntryTest, HeaderRoundTrip)
{
    MdHeader h;
    h.type = MdType::kZoneResetLog;
    h.start_lba = 0x1122334455ull;
    h.end_lba = 0x66778899aaull;
    h.generation = 42;
    std::vector<uint8_t> inl = {1, 2, 3, 4};
    auto bytes = encode_md_entry(h, inl, {});
    ASSERT_EQ(bytes.size(), kSectorSize);

    auto res = decode_md_entry(bytes, 0);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    const MdEntry &e = res.value();
    EXPECT_EQ(e.header.type, MdType::kZoneResetLog);
    EXPECT_FALSE(e.header.checkpoint);
    EXPECT_EQ(e.header.start_lba, h.start_lba);
    EXPECT_EQ(e.header.end_lba, h.end_lba);
    EXPECT_EQ(e.header.generation, 42u);
    EXPECT_EQ(e.inline_data[0], 1);
    EXPECT_EQ(e.total_sectors, 1u);
}

TEST(MdEntryTest, CheckpointFlagRoundTrip)
{
    MdHeader h;
    h.type = MdType::kGenCounters;
    h.checkpoint = true;
    auto bytes = encode_md_entry(h, {}, {});
    auto res = decode_md_entry(bytes, 0);
    ASSERT_TRUE(res.is_ok());
    EXPECT_TRUE(res.value().header.checkpoint);
    EXPECT_EQ(res.value().header.type, MdType::kGenCounters);
}

TEST(MdEntryTest, PayloadRoundTrip)
{
    MdHeader h;
    h.type = MdType::kPartialParity;
    auto payload = pattern_data(3, 77);
    auto bytes = encode_md_entry(h, std::vector<uint8_t>(12, 0), payload);
    ASSERT_EQ(bytes.size(), 4 * kSectorSize);
    auto res = decode_md_entry(bytes, 0);
    ASSERT_TRUE(res.is_ok());
    EXPECT_EQ(res.value().total_sectors, 4u);
    EXPECT_EQ(res.value().payload, payload);
}

TEST(MdEntryTest, TornPayloadRejected)
{
    MdHeader h;
    h.type = MdType::kRelocatedSu;
    auto bytes = encode_md_entry(h, {}, pattern_data(4, 1));
    bytes.resize(2 * kSectorSize); // payload torn off
    auto res = decode_md_entry(bytes, 0);
    EXPECT_EQ(res.status().code(), StatusCode::kCorruption);
}

TEST(MdEntryTest, ScanStopsAtGarbage)
{
    MdHeader h;
    h.type = MdType::kSuperblock;
    std::vector<uint8_t> zone;
    for (int i = 0; i < 3; ++i) {
        h.generation = static_cast<uint64_t>(i);
        auto e = encode_md_entry(h, {}, {});
        zone.insert(zone.end(), e.begin(), e.end());
    }
    zone.resize(zone.size() + 2 * kSectorSize, 0); // unwritten tail
    auto entries = scan_md_zone(zone, 1000);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].pba, 1000u);
    EXPECT_EQ(entries[1].pba, 1001u);
    EXPECT_EQ(entries[2].header.generation, 2u);
}

TEST(MdEntryTest, InlineRecordsRoundTrip)
{
    {
        auto inl = encode_zone_role({MdZoneRole::kParityLog, 7});
        MdHeader h;
        h.type = MdType::kZoneRole;
        auto e = decode_md_entry(encode_md_entry(h, inl, {}), 0);
        ASSERT_TRUE(e.is_ok());
        auto rec = decode_zone_role(e.value());
        ASSERT_TRUE(rec.is_ok());
        EXPECT_EQ(rec.value().role, MdZoneRole::kParityLog);
        EXPECT_EQ(rec.value().epoch, 7u);
    }
    {
        auto inl = encode_zone_reset({13});
        MdHeader h;
        h.type = MdType::kZoneResetLog;
        auto e = decode_md_entry(encode_md_entry(h, inl, {}), 0);
        auto rec = decode_zone_reset(e.value());
        ASSERT_TRUE(rec.is_ok());
        EXPECT_EQ(rec.value().logical_zone, 13u);
    }
    {
        auto inl = encode_zone_rebuild({3, 2, 1, 4, 999});
        MdHeader h;
        h.type = MdType::kZoneRebuildLog;
        auto e = decode_md_entry(encode_md_entry(h, inl, {}), 0);
        auto rec = decode_zone_rebuild(e.value());
        ASSERT_TRUE(rec.is_ok());
        EXPECT_EQ(rec.value().logical_zone, 3u);
        EXPECT_EQ(rec.value().dev, 2u);
        EXPECT_EQ(rec.value().phase, 1u);
        EXPECT_EQ(rec.value().swap_idx, 4u);
        EXPECT_EQ(rec.value().image_sectors, 999u);
    }
}

TEST(SuperblockTest, RoundTripAndCrc)
{
    Superblock sb;
    sb.array_uuid = 0xabcdef;
    RaiznConfig cfg;
    sb.from_config(cfg);
    sb.dev_id = 3;
    sb.seq = 9;
    auto enc = sb.encode();
    auto dec = Superblock::decode(enc);
    ASSERT_TRUE(dec.is_ok());
    EXPECT_EQ(dec.value().array_uuid, 0xabcdefu);
    EXPECT_EQ(dec.value().dev_id, 3u);
    EXPECT_EQ(dec.value().num_devices, cfg.num_devices);
    EXPECT_TRUE(dec.value().same_array(sb));

    enc[3] ^= 0xff; // corrupt
    EXPECT_EQ(Superblock::decode(enc).status().code(),
              StatusCode::kCorruption);
}

TEST(GenCounterTest, IncrementAndEncode)
{
    GenCounterTable t(1000);
    EXPECT_EQ(t.num_blocks(), 2u);
    t.increment(5);
    t.increment(5);
    t.increment(600);
    EXPECT_EQ(t.get(5), 2u);
    EXPECT_EQ(t.get(600), 1u);

    // Round-trip through an entry.
    MdEntry e;
    e.header = t.block_header(1, 7);
    e.inline_data = t.encode_block(1);
    GenCounterTable t2(1000);
    t2.apply_entry(e);
    EXPECT_EQ(t2.get(600), 1u);
    EXPECT_EQ(t2.get(5), 0u); // other block untouched
}

TEST(GenCounterTest, StaleEntriesIgnored)
{
    GenCounterTable t(100);
    t.increment(1);
    MdEntry newer;
    newer.header = t.block_header(0, 10);
    newer.inline_data = t.encode_block(0);

    t.increment(1); // now 2
    MdEntry stale;
    stale.header = t.block_header(0, 5);
    stale.inline_data = t.encode_block(0);

    GenCounterTable replay(100);
    replay.apply_entry(newer);
    replay.apply_entry(stale); // lower seq: ignored
    EXPECT_EQ(replay.get(1), 1u);
}

TEST(GenCounterTest, MemoryFootprintMatchesTable1)
{
    // Table 1: 8.05 bytes per logical zone.
    GenCounterTable t(508 * 4);
    double per_zone = static_cast<double>(t.memory_bytes()) / (508 * 4);
    EXPECT_NEAR(per_zone, 8.06, 0.1);
}

TEST(ParityMathTest, XorBytes)
{
    std::vector<uint8_t> a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<uint8_t> b = {9, 8, 7, 6, 5, 4, 3, 2, 1};
    std::vector<uint8_t> c = a;
    xor_bytes(c.data(), b.data(), c.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(c[i], a[i] ^ b[i]);
    xor_bytes(c.data(), b.data(), c.size());
    EXPECT_EQ(c, a) << "XOR twice is identity";
}

TEST(ParityMathTest, XorBytesUnalignedMatchesByteLoop)
{
    // Callers pass sub-ranges such as parity.data() + lo * kSectorSize,
    // so neither pointer is word-aligned in general.
    std::vector<uint8_t> src(300), dst(300);
    for (size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<uint8_t>(i * 37 + 11);
        dst[i] = static_cast<uint8_t>(i * 101 + 7);
    }
    for (size_t doff = 0; doff < 8; ++doff) {
        for (size_t soff = 0; soff < 8; ++soff) {
            for (size_t n : {0, 1, 7, 8, 9, 15, 17, 63, 65, 255}) {
                std::vector<uint8_t> got = dst;
                std::vector<uint8_t> want = dst;
                xor_bytes(got.data() + doff, src.data() + soff, n);
                for (size_t i = 0; i < n; ++i)
                    want[doff + i] ^= src[soff + i];
                ASSERT_EQ(got, want) << "doff " << doff << " soff " << soff
                                     << " n " << n;
            }
        }
    }
}

TEST(ParityMathTest, ByteRangeSingleUnit)
{
    uint64_t lo, hi;
    // Write sectors [2, 5) of a 16-sector unit: single-unit slice.
    parity_byte_range(2, 5, 16, &lo, &hi);
    EXPECT_EQ(lo, 2 * kSectorSize);
    EXPECT_EQ(hi, 5 * kSectorSize);
}

TEST(ParityMathTest, ByteRangeMultiUnit)
{
    uint64_t lo, hi;
    // Write crossing units touches the whole unit width.
    parity_byte_range(10, 20, 16, &lo, &hi);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 16 * kSectorSize);
}

TEST(StripeBufferTest, FullParityIsXorOfUnits)
{
    StripeBuffer buf(4, 4, /*shadow=*/false);
    buf.assign(0);
    auto data = pattern_data(16, 3); // whole stripe
    buf.fill(0, data.data(), 16);
    ASSERT_TRUE(buf.complete());
    auto parity = buf.full_parity();
    ASSERT_EQ(parity.size(), 4u * kSectorSize);
    for (size_t j = 0; j < parity.size(); ++j) {
        uint8_t expect = 0;
        for (uint32_t k = 0; k < 4; ++k)
            expect ^= data[k * 4 * kSectorSize + j];
        ASSERT_EQ(parity[j], expect) << "byte " << j;
    }
}

TEST(StripeBufferTest, ParityCallsMatchByteReference)
{
    // Every write [s, e) of a 4 x 4-sector stripe, and the prefix
    // parity at every fill level, against zero-filled buffers folded
    // byte by byte: once on a fresh buffer, once on a buffer re-bound
    // after a full stripe of other non-zero bytes.
    constexpr uint32_t kUnits = 4, kSu = 4;
    constexpr uint64_t kStripe = kUnits * kSu;
    constexpr uint64_t kSuBytes = kSu * kSectorSize;
    auto data = pattern_data(kStripe, 21);
    auto stale = pattern_data(kStripe, 77);
    for (bool rebound : {false, true}) {
        for (uint64_t e = 1; e <= kStripe; ++e) {
            StripeBuffer buf(kUnits, kSu, false);
            buf.assign(0);
            if (rebound) {
                buf.fill(0, stale.data(), kStripe);
                buf.assign(1);
            }
            buf.fill(0, data.data(), e);
            std::vector<uint8_t> prefix(kSuBytes, 0);
            for (uint64_t b = 0; b < e * kSectorSize; ++b)
                prefix[b % kSuBytes] ^= data[b];
            ASSERT_EQ(buf.prefix_parity(), prefix)
                << "filled " << e << " rebound " << rebound;
            if (e == kStripe) {
                ASSERT_EQ(buf.full_parity(), prefix)
                    << "rebound " << rebound;
            }
            for (uint64_t s = 0; s < e; ++s) {
                uint64_t lo, hi;
                auto delta = buf.parity_delta(s, e, &lo, &hi);
                std::vector<uint8_t> want((hi - lo) * kSectorSize, 0);
                for (uint64_t b = s * kSectorSize; b < e * kSectorSize; ++b)
                    want[b % kSuBytes - lo * kSectorSize] ^= data[b];
                ASSERT_EQ(delta, want) << "write [" << s << ", " << e
                                       << ") rebound " << rebound;
            }
        }
    }
}

TEST(StripeBufferTest, DeltaComposesToPrefixParity)
{
    // Fill a stripe in three uneven writes; XOR of the deltas must
    // equal the cumulative prefix parity.
    StripeBuffer buf(4, 4, false);
    buf.assign(7);
    auto data = pattern_data(16, 9);
    std::vector<std::pair<uint64_t, uint64_t>> writes = {
        {0, 3}, {3, 9}, {9, 14}};
    std::vector<uint8_t> acc(4 * kSectorSize, 0);
    for (auto [s, e] : writes) {
        buf.fill(s, data.data() + s * kSectorSize, e - s);
        uint64_t lo, hi;
        auto delta = buf.parity_delta(s, e, &lo, &hi);
        xor_bytes(acc.data() + lo * kSectorSize, delta.data(),
                  delta.size());
    }
    auto prefix = buf.prefix_parity();
    EXPECT_EQ(acc, prefix);
}

TEST(StripeBufferTest, PrefixParityZeroExtends)
{
    StripeBuffer buf(4, 4, false);
    buf.assign(0);
    auto data = pattern_data(6, 5); // 1.5 units
    buf.fill(0, data.data(), 6);
    auto parity = buf.prefix_parity();
    // Bytes beyond the second unit's fill come only from unit 0.
    for (size_t j = 2 * kSectorSize; j < 4 * kSectorSize; ++j)
        EXPECT_EQ(parity[j], data[j]);
    // Bytes in the overlap are the XOR of units 0 and 1.
    for (size_t j = 0; j < 2 * kSectorSize; ++j)
        EXPECT_EQ(parity[j], data[j] ^ data[4 * kSectorSize + j]);
}

TEST(StripeBufferTest, ShadowModeTracksFillOnly)
{
    StripeBuffer buf(4, 4, /*shadow=*/true);
    uint64_t allocs = prof::g_alloc_count;
    uint64_t alloc_bytes = prof::g_alloc_bytes;
    buf.assign(0);
    buf.fill(0, nullptr, 10);
    EXPECT_EQ(buf.filled(), 10u);
    EXPECT_FALSE(buf.complete());
    EXPECT_EQ(buf.memory_bytes(), 0u);
    uint64_t lo, hi;
    auto delta = buf.parity_delta(0, 10, &lo, &hi);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 4u);
    // Lengths only: every parity call returns an empty vector.
    EXPECT_TRUE(delta.empty());
    EXPECT_TRUE(buf.prefix_parity().empty());
    buf.fill(10, nullptr, 6);
    ASSERT_TRUE(buf.complete());
    EXPECT_TRUE(buf.full_parity().empty());
    EXPECT_EQ(prof::g_alloc_count, allocs);
    EXPECT_EQ(prof::g_alloc_bytes, alloc_bytes);
}

TEST(PersistBitmapTest, PrefixTracking)
{
    PersistBitmap pbm(16, 4);
    EXPECT_EQ(pbm.persisted_prefix_units(), 0u);
    // 1.5 units: only the fully covered unit counts — a half-persisted
    // unit's device still caches the tail, so its bit must stay clear
    // or a later FUA dependency flush would skip that device.
    pbm.mark_persisted_upto(6);
    EXPECT_EQ(pbm.persisted_prefix_units(), 1u);
    EXPECT_TRUE(pbm.prefix_persisted(1));
    EXPECT_FALSE(pbm.prefix_persisted(2));
    pbm.mark_unit(3); // out of order
    EXPECT_EQ(pbm.persisted_prefix_units(), 1u);
    pbm.mark_unit(2);
    EXPECT_EQ(pbm.persisted_prefix_units(), 1u);
    pbm.mark_unit(1);
    EXPECT_EQ(pbm.persisted_prefix_units(), 4u);
    pbm.clear();
    EXPECT_EQ(pbm.persisted_prefix_units(), 0u);
}

TEST(PersistBitmapTest, RandomOpsMatchNaiveModel)
{
    // mark_unit / mark_persisted_upto / clear against a plain vector of
    // flags, over sizes around the 64-bit word edges.
    Rng rng(11);
    for (uint64_t units : {1u, 63u, 64u, 65u, 130u, 1000u}) {
        const uint32_t su = 1 + static_cast<uint32_t>(rng.next_below(16));
        PersistBitmap pbm(units, su);
        std::vector<bool> model(units, false);
        for (int step = 0; step < 2000; ++step) {
            const uint64_t pick = rng.next_below(100);
            if (pick < 60) {
                const uint64_t u = rng.next_below(units);
                pbm.mark_unit(u);
                model[u] = true;
            } else if (pick < 98) {
                const uint64_t upto = rng.next_below((units + 2) * su);
                pbm.mark_persisted_upto(upto);
                for (uint64_t u = 0; u < std::min(upto / su, units); ++u)
                    model[u] = true;
            } else {
                pbm.clear();
                model.assign(units, false);
            }
            uint64_t prefix = 0;
            while (prefix < units && model[prefix])
                prefix++;
            ASSERT_EQ(pbm.persisted_prefix_units(), prefix)
                << "units " << units << " step " << step;
            const uint64_t probe = rng.next_below(units);
            ASSERT_EQ(pbm.unit_persisted(probe), model[probe])
                << "units " << units << " step " << step << " unit " << probe;
        }
        for (uint64_t u = 0; u < units; ++u)
            ASSERT_EQ(pbm.unit_persisted(u), model[u]) << units << "/" << u;
    }
}

TEST(PersistBitmapTest, MemoryIsOneBitPerUnit)
{
    // Table 1: 2 KiB per logical zone for their geometry.
    PersistBitmap pbm(16384, 16);
    EXPECT_EQ(pbm.memory_bytes(), 2048u);
}

TEST(RelocationMapTest, FindAndDrop)
{
    RelocationMap map;
    map.insert({100, 16, 2, 5000, {}});
    map.insert({200, 8, 1, 6000, {}});
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(100), nullptr);
    ASSERT_NE(map.find(115), nullptr);
    EXPECT_EQ(map.find(116), nullptr);
    EXPECT_EQ(map.find(99), nullptr);
    EXPECT_EQ(map.find(207)->dev, 1u);
    EXPECT_EQ(map.count_for_dev(2), 1u);
    map.drop_zone(0, 150);
    EXPECT_EQ(map.find(100), nullptr);
    ASSERT_NE(map.find(200), nullptr);
}

TEST(RelocationMapTest, FirstOverlap)
{
    RelocationMap map;
    EXPECT_EQ(map.first_overlap(0, 1000), nullptr);
    map.insert({100, 16, 2, 5000, {}});
    map.insert({200, 8, 1, 6000, {}});
    // No overlap: before, between and after the relocations, and a
    // range ending exactly where one begins.
    EXPECT_EQ(map.first_overlap(0, 100), nullptr);
    EXPECT_EQ(map.first_overlap(116, 200), nullptr);
    EXPECT_EQ(map.first_overlap(208, 300), nullptr);
    // A relocation starting exactly at lo.
    ASSERT_NE(map.first_overlap(100, 101), nullptr);
    EXPECT_EQ(map.first_overlap(100, 101)->lba, 100u);
    // One starting in the middle of the range.
    ASSERT_NE(map.first_overlap(150, 260), nullptr);
    EXPECT_EQ(map.first_overlap(150, 260)->lba, 200u);
    // One that began before lo and still covers it; the lowest
    // overlapping relocation wins over a later one.
    ASSERT_NE(map.first_overlap(110, 300), nullptr);
    EXPECT_EQ(map.first_overlap(110, 300)->lba, 100u);
    ASSERT_NE(map.first_overlap(207, 208), nullptr);
    EXPECT_EQ(map.first_overlap(207, 208)->lba, 200u);
}

TEST(BurnedRangesTest, TrackPerDevZone)
{
    BurnedRanges b;
    EXPECT_EQ(b.burned_end(0, 0), 0u);
    b.set(0, 3, 100, 160);
    EXPECT_EQ(b.burned_end(0, 3), 160u);
    EXPECT_EQ(b.burned_end(1, 3), 0u);
    b.clear_dev_zone(0, 3);
    EXPECT_EQ(b.burned_end(0, 3), 0u);
    b.set(2, 1, 50, 80);
    b.clear_zone(5, 1);
    EXPECT_EQ(b.burned_end(2, 1), 0u);
    // No-op when end <= expected.
    b.set(0, 0, 100, 100);
    EXPECT_EQ(b.burned_end(0, 0), 0u);
}

} // namespace
} // namespace raizn
