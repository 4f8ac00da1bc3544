/**
 * @file
 * IoBuf: adoption without a copy, shared slices, copy-on-write for a
 * shared buffer's writer, handing storage back out as a vector, and the
 * recycled storage behind the env's one copy.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/io_buf.h"
#include "obs/prof/prof.h"

namespace raizn {
namespace {

std::vector<uint8_t>
bytes(size_t n, uint8_t seed)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<uint8_t>(seed + i * 7);
    return v;
}

/// Copy bytes the profiler's meter saw while `fn` ran.
template <typename Fn>
uint64_t
copied_by(Fn fn)
{
    const uint64_t before = prof::g_copy_bytes;
    fn();
    return prof::g_copy_bytes - before;
}

TEST(IoBuf, AdoptsAVectorWithoutCopying)
{
    std::vector<uint8_t> v = bytes(4096, 1);
    const uint8_t *storage = v.data();
    IoBuf b(std::move(v));
    EXPECT_EQ(b.data(), storage);
    EXPECT_EQ(b.size(), 4096u);
    EXPECT_TRUE(b.unique());
    EXPECT_EQ(b, bytes(4096, 1));

    IoBuf empty(std::vector<uint8_t>{});
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.data(), nullptr);
    EXPECT_TRUE(empty.slice(0, 0).empty());
}

TEST(IoBuf, SlicesShareStorage)
{
    IoBuf b(bytes(8192, 3));
    uint64_t copied = copied_by([&] {
        IoBuf mid = b.slice(1000, 2000);
        EXPECT_EQ(mid.data(), b.data() + 1000);
        EXPECT_EQ(mid.size(), 2000u);
        EXPECT_FALSE(b.unique());
        IoBuf inner = mid.slice(500, 10);
        EXPECT_EQ(inner.data(), b.data() + 1500);
        EXPECT_EQ(inner[0], b[1500]);
        EXPECT_EQ(b.prefix(16).size(), 16u);
    });
    EXPECT_EQ(copied, 0u);
    EXPECT_TRUE(b.unique()) << "every slice released its reference";
}

TEST(IoBuf, SliceOutlivesTheBufferItCameFrom)
{
    IoBuf tail;
    {
        IoBuf b(bytes(4096, 5));
        tail = b.slice(4000, 96);
    }
    EXPECT_TRUE(tail.unique());
    std::vector<uint8_t> want = bytes(4096, 5);
    EXPECT_EQ(tail, std::vector<uint8_t>(want.begin() + 4000, want.end()));
}

TEST(IoBuf, MutableDataCopiesOnlyASharedBuffer)
{
    IoBuf b(bytes(64, 9));
    const uint8_t *storage = b.data();
    EXPECT_EQ(copied_by([&] { b.mutable_data()[0] ^= 1; }), 0u);
    EXPECT_EQ(b.data(), storage) << "a sole holder writes in place";

    IoBuf other = b;
    uint64_t copied = copied_by([&] { other.mutable_data()[1] ^= 1; });
    EXPECT_EQ(copied, 64u);
    EXPECT_NE(other.data(), b.data());
    EXPECT_EQ(b[1], bytes(64, 9)[1]) << "the shared bytes are untouched";
    EXPECT_NE(other[1], b[1]);
}

TEST(IoBuf, ToVectorHandsBackASoleHoldersStorage)
{
    std::vector<uint8_t> v = bytes(4096, 11);
    const uint8_t *storage = v.data();
    IoBuf b(std::move(v));
    std::vector<uint8_t> out;
    EXPECT_EQ(copied_by([&] { out = std::move(b).to_vector(); }), 0u);
    EXPECT_EQ(out.data(), storage);
    EXPECT_EQ(out, bytes(4096, 11));

    // A sole holder's slice is trimmed in place: one move of its bytes.
    IoBuf whole(bytes(100, 13));
    std::vector<uint8_t> trimmed;
    EXPECT_EQ(copied_by([&] {
                  trimmed = std::move(whole).slice(10, 50).to_vector();
              }),
              50u);
    EXPECT_TRUE(whole.empty()) << "the rvalue slice took the reference";
    std::vector<uint8_t> want = bytes(100, 13);
    EXPECT_EQ(trimmed,
              std::vector<uint8_t>(want.begin() + 10, want.begin() + 60));

    // A shared buffer copies.
    IoBuf a(bytes(32, 17));
    IoBuf shared = a;
    std::vector<uint8_t> copy;
    EXPECT_EQ(copied_by([&] { copy = std::move(shared).to_vector(); }), 32u);
    EXPECT_EQ(copy, bytes(32, 17));
    EXPECT_EQ(a, bytes(32, 17));
}

TEST(IoBuf, RecycledReusesStorageAndZeroPads)
{
    const std::vector<uint8_t> src = bytes(10000, 19);
    const uint8_t *first = nullptr;
    {
        IoBuf b = IoBuf::recycled(src, 3 * 4096);
        ASSERT_EQ(b.size(), 3u * 4096);
        EXPECT_EQ(0, std::memcmp(b.data(), src.data(), src.size()));
        for (size_t i = src.size(); i < b.size(); ++i)
            ASSERT_EQ(b[i], 0) << i;
        first = b.data();
    }
    // The released storage comes back for the next buffer that fits.
    const uint64_t allocs = prof::g_alloc_bytes;
    IoBuf again = IoBuf::recycled(std::span(src).first(100), 4096);
    EXPECT_EQ(again.data(), first);
    EXPECT_EQ(prof::g_alloc_bytes, allocs) << "no fresh storage";
    for (size_t i = 100; i < again.size(); ++i)
        ASSERT_EQ(again[i], 0) << "pad after reuse at " << i;

    // The free list holds at most kRecycleCap entries.
    {
        std::vector<IoBuf> held;
        for (size_t i = 0; i < IoBuf::kRecycleCap + 2; ++i)
            held.push_back(IoBuf::recycled(src, src.size()));
    }
    std::vector<IoBuf> reused;
    size_t fresh = 0;
    for (size_t i = 0; i < IoBuf::kRecycleCap + 1; ++i) {
        const uint64_t before = prof::g_alloc_bytes;
        reused.push_back(IoBuf::recycled(src, src.size()));
        fresh += prof::g_alloc_bytes != before;
    }
    EXPECT_EQ(fresh, 1u);
}

} // namespace
} // namespace raizn
