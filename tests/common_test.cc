/**
 * @file
 * Unit tests for src/common: status, units, histogram, rng, the CRC32C
 * and XOR kernels, bitmap.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/bitmap.h"
#include "common/histogram.h"
#include "common/kernels.h"
#include "common/kernels_internal.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace raizn {
namespace {

TEST(StatusTest, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.is_ok());
    EXPECT_TRUE(static_cast<bool>(s));
    EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesMessage)
{
    Status s(StatusCode::kIoError, "disk on fire");
    EXPECT_FALSE(s.is_ok());
    EXPECT_EQ(s.to_string(), "IO_ERROR: disk on fire");
    EXPECT_EQ(s, StatusCode::kIoError);
}

TEST(StatusTest, AllCodesHaveNames)
{
    for (int c = 0; c <= static_cast<int>(StatusCode::kNotSupported); ++c) {
        EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
    }
}

TEST(ResultTest, ValueAndError)
{
    Result<int> ok(42);
    ASSERT_TRUE(ok.is_ok());
    EXPECT_EQ(ok.value(), 42);

    Result<int> err(Status(StatusCode::kNotFound, "nope"));
    ASSERT_FALSE(err.is_ok());
    EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(err.value_or(-1), -1);
}

TEST(UnitsTest, Conversions)
{
    EXPECT_EQ(bytes_to_sectors(64 * kKiB), 16u);
    EXPECT_EQ(sectors_to_bytes(16), 64 * kKiB);
    EXPECT_EQ(round_up(5, 4), 8u);
    EXPECT_EQ(round_up(8, 4), 8u);
    EXPECT_EQ(div_ceil(9, 4), 3u);
    EXPECT_NEAR(mib_per_sec(kMiB, kNsPerSec), 1.0, 1e-9);
}

TEST(HistogramTest, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, SingleValue)
{
    Histogram h;
    h.add(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.p50(), 1000u);
    EXPECT_EQ(h.p999(), 1000u);
}

TEST(HistogramTest, PercentilesWithinBucketError)
{
    Histogram h;
    for (uint64_t v = 1; v <= 100000; ++v)
        h.add(v);
    // Buckets have <= ~1.6% relative width.
    EXPECT_NEAR(static_cast<double>(h.p50()), 50000.0, 50000 * 0.02);
    EXPECT_NEAR(static_cast<double>(h.p99()), 99000.0, 99000 * 0.02);
    EXPECT_NEAR(static_cast<double>(h.p999()), 99900.0, 99900 * 0.02);
    EXPECT_NEAR(h.mean(), 50000.5, 1.0);
}

TEST(HistogramTest, MergeMatchesCombined)
{
    Histogram a, b, c;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.next_below(1u << 20);
        (i % 2 ? a : b).add(v);
        c.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), c.count());
    EXPECT_EQ(a.min(), c.min());
    EXPECT_EQ(a.max(), c.max());
    EXPECT_EQ(a.p50(), c.p50());
    EXPECT_EQ(a.p999(), c.p999());
}

TEST(HistogramTest, ClearResets)
{
    Histogram h;
    h.add(5);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BoundsRespected)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
        uint64_t v = rng.next_range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, UniformityRoughly)
{
    Rng rng(9);
    std::map<uint64_t, int> counts;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i)
        counts[rng.next_below(10)]++;
    for (auto &[v, n] : counts) {
        EXPECT_NEAR(n, kDraws / 10, kDraws / 10 * 0.1) << "value " << v;
    }
}

TEST(ZipfianTest, SkewsTowardHead)
{
    ZipfianGenerator zipf(1000, 0.99, 3);
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i) {
        uint64_t v = zipf.next();
        ASSERT_LT(v, 1000u);
        counts[v]++;
    }
    // Item 0 must be the most popular and much hotter than the median.
    EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(Crc32Test, KnownVector)
{
    // CRC32C("123456789") = 0xE3069283
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, SeedChaining)
{
    const char *msg = "hello, zoned world";
    uint32_t whole = crc32c(msg, std::strlen(msg));
    uint32_t part = crc32c(msg, 5);
    part = crc32c(msg + 5, std::strlen(msg) - 5, part);
    EXPECT_EQ(whole, part);
}

TEST(Crc32Test, DetectsBitFlip)
{
    std::vector<uint8_t> buf(4096, 0xab);
    uint32_t before = crc32c(buf.data(), buf.size());
    buf[1234] ^= 0x01;
    EXPECT_NE(before, crc32c(buf.data(), buf.size()));
}

using CrcFn = uint32_t (*)(const void *, size_t, uint32_t);

/// Bit-at-a-time CRC32C register update, independent of both
/// implementations under test.
uint32_t
crc32c_bitwise_step(uint32_t reg, uint8_t byte)
{
    reg ^= byte;
    for (int k = 0; k < 8; ++k)
        reg = (reg >> 1) ^ ((reg & 1) ? 0x82f63b78u : 0);
    return reg;
}

/// Checks `fn` against the bitwise reference on every length 0..9000
/// at every start offset 0..7, with a random seed per offset.
void
expect_matches_bitwise(CrcFn fn)
{
    constexpr size_t kMaxLen = 9000;
    Rng rng(13);
    std::vector<uint8_t> buf(kMaxLen + 8);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (size_t off = 0; off < 8; ++off) {
        auto seed = static_cast<uint32_t>(rng.next());
        const uint8_t *p = buf.data() + off;
        uint32_t reg = ~seed; // reference state after p[0, len)
        for (size_t len = 0; len <= kMaxLen; ++len) {
            ASSERT_EQ(fn(p, len, seed), ~reg)
                << "len " << len << " off " << off << " seed " << seed;
            if (len < kMaxLen)
                reg = crc32c_bitwise_step(reg, p[len]);
        }
    }
}

/// crc(a + b) == crc(b, crc(a)) at random split points.
void
expect_chains(CrcFn fn)
{
    Rng rng(17);
    std::vector<uint8_t> buf(5000);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (int i = 0; i < 200; ++i) {
        size_t len = rng.next_below(buf.size() + 1);
        size_t split = rng.next_below(len + 1);
        auto seed = static_cast<uint32_t>(rng.next());
        uint32_t head = fn(buf.data(), split, seed);
        EXPECT_EQ(fn(buf.data(), len, seed),
                  fn(buf.data() + split, len - split, head))
            << "len " << len << " split " << split;
    }
}

/**
 * Sector- and unit-sized inputs (4 KiB, 64 KiB) at random seeds, cut
 * into chained calls at random points and at points just around each
 * three-lane step edge, against the portable reference.
 */
void
expect_long_inputs_chain(CrcFn fn)
{
    Rng rng(29);
    for (size_t len : {size_t{4096}, size_t{65536}}) {
        std::vector<uint8_t> buf(len);
        for (auto &b : buf)
            b = static_cast<uint8_t>(rng.next());
        std::vector<size_t> cuts;
        constexpr size_t step = 3 * detail::kCrcLane;
        for (size_t edge = step; edge < len; edge += step) {
            cuts.push_back(edge - 1);
            cuts.push_back(edge);
            cuts.push_back(edge + 1 + edge / step % 8);
        }
        for (int i = 0; i < 16; ++i)
            cuts.push_back(rng.next_below(len + 1));
        for (size_t cut : cuts) {
            auto seed = static_cast<uint32_t>(rng.next());
            uint32_t want = detail::crc32c_portable(buf.data(), len, seed);
            ASSERT_EQ(fn(buf.data(), len, seed), want)
                << "len " << len << " seed " << seed;
            uint32_t head = fn(buf.data(), cut, seed);
            ASSERT_EQ(fn(buf.data() + cut, len - cut, head), want)
                << "len " << len << " cut " << cut << " seed " << seed;
        }
    }
}

TEST(Crc32Test, PortableMatchesBitwiseReference)
{
    EXPECT_EQ(detail::crc32c_portable("123456789", 9, 0), 0xE3069283u);
    expect_matches_bitwise(detail::crc32c_portable);
    expect_chains(detail::crc32c_portable);
}

TEST(Crc32Test, DispatchedMatchesBitwiseReference)
{
    expect_matches_bitwise(crc32c);
    expect_chains(crc32c);
    expect_long_inputs_chain(crc32c);
}

TEST(Crc32Test, HardwareMatchesBitwiseReference)
{
#ifdef RAIZN_HAVE_X86_KERNELS
    if (!detail::crc32c_hw_supported())
        GTEST_SKIP() << "host CPU lacks SSE4.2";
    EXPECT_EQ(detail::crc32c_hw("123456789", 9, 0), 0xE3069283u);
    expect_matches_bitwise(detail::crc32c_hw);
    expect_chains(detail::crc32c_hw);
    expect_long_inputs_chain(detail::crc32c_hw);
#else
    GTEST_SKIP() << "no hardware CRC32C path on this architecture";
#endif
}

using XorFn = void (*)(uint8_t *, const uint8_t *, size_t);

/// Checks `fn` against a byte loop on every length 0..1100 at every
/// dst and src offset 0..31, and that bytes outside the range stay.
void
expect_xor_matches_byte_loop(XorFn fn)
{
    constexpr size_t kMaxLen = 1100;
    constexpr size_t kOffsets = 32;
    constexpr size_t kSize = kMaxLen + kOffsets;
    Rng rng(31);
    std::vector<uint8_t> src(kSize), dst(kSize), want(kMaxLen);
    for (auto &b : src)
        b = static_cast<uint8_t>(rng.next());
    for (auto &b : dst)
        b = static_cast<uint8_t>(rng.next());
    std::vector<uint8_t> got = dst;
    for (size_t doff = 0; doff < kOffsets; ++doff) {
        for (size_t soff = 0; soff < kOffsets; ++soff) {
            for (size_t i = 0; i < kMaxLen; ++i)
                want[i] = dst[doff + i] ^ src[soff + i];
            for (size_t n = 0; n <= kMaxLen; ++n) {
                fn(got.data() + doff, src.data() + soff, n);
                ASSERT_EQ(std::memcmp(got.data() + doff, want.data(), n), 0)
                    << "n " << n << " doff " << doff << " soff " << soff;
                ASSERT_EQ(std::memcmp(got.data(), dst.data(), doff), 0)
                    << "n " << n << " doff " << doff << " soff " << soff;
                ASSERT_EQ(std::memcmp(got.data() + doff + n,
                                      dst.data() + doff + n,
                                      kSize - doff - n),
                          0)
                    << "n " << n << " doff " << doff << " soff " << soff;
                std::memcpy(got.data() + doff, dst.data() + doff, n);
            }
        }
    }
}

TEST(XorTest, PortableMatchesByteLoop)
{
    expect_xor_matches_byte_loop(detail::xor_bytes_portable);
}

TEST(XorTest, DispatchedMatchesByteLoop)
{
    expect_xor_matches_byte_loop(xor_bytes);
}

TEST(XorTest, Avx2MatchesByteLoop)
{
#ifdef RAIZN_HAVE_X86_KERNELS
    if (!detail::xor_avx2_supported())
        GTEST_SKIP() << "host CPU lacks AVX2";
    expect_xor_matches_byte_loop(detail::xor_bytes_avx2);
#else
    GTEST_SKIP() << "no AVX2 XOR path on this architecture";
#endif
}

TEST(BitmapTest, SetTestClear)
{
    Bitmap bm(130);
    EXPECT_EQ(bm.size(), 130u);
    EXPECT_FALSE(bm.test(0));
    bm.set(0);
    bm.set(64);
    bm.set(129);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(129));
    EXPECT_EQ(bm.count_set(), 3u);
    bm.clear(64);
    EXPECT_FALSE(bm.test(64));
}

TEST(BitmapTest, RangeOps)
{
    Bitmap bm(256);
    bm.set_range(10, 20);
    EXPECT_TRUE(bm.all_set(10, 20));
    EXPECT_FALSE(bm.all_set(9, 20));
    EXPECT_FALSE(bm.all_set(10, 21));
    EXPECT_EQ(bm.find_first_clear(10), 20u);
    EXPECT_EQ(bm.find_first_clear(0), 0u);
    bm.clear_all();
    EXPECT_EQ(bm.count_set(), 0u);
}

TEST(BitmapTest, WordRangesMatchBitByBit)
{
    // set_range fills whole words and find_first_clear scans them; both
    // must agree with a one-bit-at-a-time model at every word edge.
    Rng rng(5);
    for (size_t bits : {1u, 63u, 64u, 65u, 127u, 128u, 200u}) {
        Bitmap bm(bits);
        std::vector<bool> model(bits, false);
        for (int step = 0; step < 300; ++step) {
            size_t lo = rng.next_below(bits + 1);
            size_t hi = rng.next_below(bits + 1);
            if (lo > hi)
                std::swap(lo, hi);
            if (rng.next_below(8) == 0) {
                bm.clear_all();
                model.assign(bits, false);
            }
            bm.set_range(lo, hi);
            for (size_t i = lo; i < hi; ++i)
                model[i] = true;
            const size_t from = rng.next_below(bits + 1);
            size_t want = from;
            while (want < bits && model[want])
                want++;
            ASSERT_EQ(bm.find_first_clear(from), want)
                << bits << " bits, from " << from;
        }
        for (size_t i = 0; i < bits; ++i)
            ASSERT_EQ(bm.test(i), model[i]) << bits << "/" << i;
    }
}

} // namespace
} // namespace raizn
