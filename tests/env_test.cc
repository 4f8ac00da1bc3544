/**
 * @file
 * Tests for the storage environments: one contract suite both envs
 * meet (round trips, listing, deletes, free space, synced reads), then
 * each placement's own semantics: padding, deletion + zone reclaim and
 * the cleaner for ZonedEnv, tail rewrites and extents for BlockEnv.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "env_test_util.h"

namespace raizn {
namespace {

std::vector<uint8_t>
bytes_of(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

/// `n` bytes that differ by offset and by `seed`.
std::vector<uint8_t>
pattern(size_t n, uint32_t seed)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<uint8_t>((i * 131 + seed * 29 + (i >> 12)) & 0xff);
    return v;
}

void
append_to(std::vector<uint8_t> *all, const std::vector<uint8_t> &more)
{
    all->insert(all->end(), more.begin(), more.end());
}

/// Reads `name` back whole and checks it byte for byte, then one
/// unaligned slice.
void
expect_reads_back(Env *env, const std::string &name,
                  const std::vector<uint8_t> &want)
{
    ASSERT_EQ(env->file_size(name).value(), want.size());
    auto r = env->open_readable(name);
    ASSERT_TRUE(r.is_ok());
    auto all = r.value()->read(0, want.size());
    ASSERT_TRUE(all.is_ok());
    ASSERT_TRUE(all.value() == want) << name;
    const uint64_t off = want.size() / 3 + 5;
    const uint64_t len = want.size() / 2;
    auto slice = r.value()->read(off, len);
    ASSERT_TRUE(slice.is_ok());
    ASSERT_TRUE(std::equal(slice.value().begin(), slice.value().end(),
                           want.begin() + static_cast<ptrdiff_t>(off),
                           want.begin() + static_cast<ptrdiff_t>(off + len)))
        << name << " slice";
}

class EnvContract : public ::testing::TestWithParam<EnvKind>
{
  protected:
    EnvContract() : stack_(GetParam(), scale()) {}

    static BenchScale
    scale()
    {
        BenchScale scale;
        scale.zones_per_device = 9; // 6 logical zones on RAIZN
        scale.zone_cap_sectors = 256; // 1 MiB zones
        return scale;
    }

    Env *env() { return stack_.env.get(); }

    EnvStack stack_;
};

TEST_P(EnvContract, WriteReadRoundTrip)
{
    auto f = env()->new_writable("a");
    ASSERT_TRUE(f.is_ok());
    ASSERT_TRUE(f.value()->append(bytes_of("hello ")).is_ok());
    ASSERT_TRUE(f.value()->append(bytes_of("file world")).is_ok());
    ASSERT_TRUE(f.value()->close().is_ok());
    EXPECT_TRUE(env()->file_exists("a"));
    EXPECT_EQ(env()->file_size("a").value(), 16u);

    auto r = env()->open_readable("a");
    ASSERT_TRUE(r.is_ok());
    auto data = r.value()->read(0, 16);
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ(std::string(data.value().begin(), data.value().end()),
              "hello file world");
    // Partial read at an offset.
    data = r.value()->read(6, 4);
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ(std::string(data.value().begin(), data.value().end()),
              "file");
    EXPECT_EQ(r.value()->read(16, 1).status().code(),
              StatusCode::kInvalidArgument); // past EOF
}

TEST_P(EnvContract, ManyFilesListAndDelete)
{
    for (int i = 0; i < 10; ++i) {
        auto f = env()->new_writable("f" + std::to_string(i));
        ASSERT_TRUE(f.value()->append(bytes_of("data")).is_ok());
        ASSERT_TRUE(f.value()->close().is_ok());
    }
    EXPECT_EQ(env()->list_files().size(), 10u);
    EXPECT_TRUE(env()->file_exists("f3"));
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(env()->delete_file("f" + std::to_string(i)).is_ok());
    EXPECT_TRUE(env()->list_files().empty());
    EXPECT_FALSE(env()->file_exists("f3"));
    EXPECT_EQ(env()->delete_file("f3").code(), StatusCode::kNotFound);
    EXPECT_EQ(env()->stats().files_created, 10u);
    EXPECT_EQ(env()->stats().files_deleted, 10u);
}

TEST_P(EnvContract, DeleteFreesSpace)
{
    uint64_t before = env()->free_bytes();
    auto f = env()->new_writable("tmp");
    std::vector<uint8_t> mb(kMiB, 0x5a);
    ASSERT_TRUE(f.value()->append(mb).is_ok());
    ASSERT_TRUE(f.value()->close().is_ok());
    EXPECT_LT(env()->free_bytes(), before);
    ASSERT_TRUE(env()->delete_file("tmp").is_ok());
    EXPECT_EQ(env()->free_bytes(), before);
}

// Small, direct (>= 256 KiB) and unaligned appends, each followed by a
// sync: the synced stream reads back whole and in a slice before the
// file is closed.
TEST_P(EnvContract, SyncedAppendsReadBack)
{
    auto f = env()->new_writable("log");
    ASSERT_TRUE(f.is_ok());
    std::vector<uint8_t> want;
    for (uint32_t i = 0; i < 4; ++i) {
        std::vector<uint8_t> more =
            pattern(i % 2 == 0 ? 1000 + i : 300 * kKiB + 7 * i, 70 + i);
        ASSERT_TRUE(f.value()->append(more).is_ok());
        ASSERT_TRUE(f.value()->sync().is_ok());
        append_to(&want, more);
    }
    expect_reads_back(env(), "log", want);
    ASSERT_TRUE(f.value()->close().is_ok());
    EXPECT_EQ(env()->stats().bytes_appended, want.size());
}

INSTANTIATE_TEST_SUITE_P(
    Envs, EnvContract,
    ::testing::Values(EnvKind::kZonedRaizn, EnvKind::kBlockMdraid),
    [](const ::testing::TestParamInfo<EnvKind> &info) {
        return env_kind_name(info.param);
    });

class ZonedEnvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        BenchScale scale;
        scale.zones_per_device = 9; // 6 logical zones
        scale.zone_cap_sectors = 256; // 1 MiB zones
        scale.data_mode = DataMode::kStore;
        arr_ = make_raizn_array(scale);
        env_ = std::make_unique<ZonedEnv>(arr_.loop.get(),
                                          arr_.vol.get());
    }

    RaiznArray arr_;
    std::unique_ptr<ZonedEnv> env_;
};

TEST_F(ZonedEnvTest, LargeFileSpansZones)
{
    auto f = env_->new_writable("big");
    ASSERT_TRUE(f.is_ok());
    // 2.5 zones worth of data.
    std::vector<uint8_t> chunk(256 * kKiB);
    for (size_t i = 0; i < chunk.size(); ++i)
        chunk[i] = static_cast<uint8_t>(i * 7);
    size_t total = 0;
    while (total < 10 * kMiB) {
        ASSERT_TRUE(f.value()->append(chunk).is_ok());
        total += chunk.size();
    }
    ASSERT_TRUE(f.value()->close().is_ok());
    auto r = env_->open_readable("big");
    ASSERT_TRUE(r.is_ok());
    auto data = r.value()->read(5 * kMiB + 3, 1000);
    ASSERT_TRUE(data.is_ok());
    for (size_t i = 0; i < 1000; ++i) {
        size_t off = (5 * kMiB + 3 + i) % chunk.size();
        ASSERT_EQ(data.value()[i], chunk[off]) << i;
    }
}

TEST_F(ZonedEnvTest, SyncPadsButReadsStayCorrect)
{
    auto f = env_->new_writable("wal");
    ASSERT_TRUE(f.is_ok());
    // Repeated small append+sync, like a WAL: each sync pads to a
    // sector but the byte stream must read back seamlessly.
    std::string all;
    for (int i = 0; i < 10; ++i) {
        std::string rec = "record-" + std::to_string(i) + ";";
        ASSERT_TRUE(f.value()->append(bytes_of(rec)).is_ok());
        ASSERT_TRUE(f.value()->sync().is_ok());
        all += rec;
    }
    auto r = env_->open_readable("wal");
    auto data = r.value()->read(0, all.size());
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ(std::string(data.value().begin(), data.value().end()), all);
}

TEST_F(ZonedEnvTest, DeleteReclaimsDeadZones)
{
    // Fill two whole logical zones with one file, delete it: the dead
    // zones reset.
    auto f = env_->new_writable("dead");
    std::vector<uint8_t> mb(kMiB, 0xcd);
    uint64_t zone_bytes = arr_.vol->zone_capacity() * kSectorSize;
    for (uint64_t written = 0; written < 2 * zone_bytes + kMiB;
         written += mb.size()) {
        ASSERT_TRUE(f.value()->append(mb).is_ok());
    }
    ASSERT_TRUE(f.value()->close().is_ok());
    uint64_t resets_before = arr_.vol->stats().zone_resets;
    ASSERT_TRUE(env_->delete_file("dead").is_ok());
    EXPECT_GT(arr_.vol->stats().zone_resets, resets_before);
    EXPECT_FALSE(env_->file_exists("dead"));
}

TEST_F(ZonedEnvTest, CleanerRelocatesLiveData)
{
    // Interleave two files, delete one, then fill until the cleaner
    // must run; the survivor must stay intact.
    auto a = env_->new_writable("keep");
    auto b = env_->new_writable("kill");
    std::vector<uint8_t> ka(64 * kKiB, 0xaa), kb(64 * kKiB, 0xbb);
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(a.value()->append(ka).is_ok());
        ASSERT_TRUE(a.value()->sync().is_ok());
        ASSERT_TRUE(b.value()->append(kb).is_ok());
        ASSERT_TRUE(b.value()->sync().is_ok());
    }
    ASSERT_TRUE(a.value()->close().is_ok());
    ASSERT_TRUE(b.value()->close().is_ok());
    ASSERT_TRUE(env_->delete_file("kill").is_ok());

    // Fill remaining space to force cleaning.
    auto c = env_->new_writable("filler");
    std::vector<uint8_t> mb(256 * kKiB, 0x11);
    Status st;
    for (int i = 0; i < 40; ++i) {
        st = c.value()->append(mb);
        if (!st)
            break;
        st = c.value()->sync();
        if (!st)
            break;
    }
    ASSERT_TRUE(c.value()->close().is_ok());
    // The keep file reads back correctly even if relocated.
    auto r = env_->open_readable("keep");
    auto data = r.value()->read(10 * 64 * kKiB, 64 * kKiB);
    ASSERT_TRUE(data.is_ok());
    for (uint8_t v : data.value())
        ASSERT_EQ(v, 0xaa);
}

// A >= 256 KiB append into an empty buffer goes out straight from the
// caller's bytes (whole sectors) and buffers only its unaligned tail;
// the small appends after it join the tail and the sync pads it into
// the sector right after, which merges into the one extent.
TEST_F(ZonedEnvTest, DirectAppendKeepsUnalignedTail)
{
    auto f = env_->new_writable("f");
    ASSERT_TRUE(f.is_ok());
    std::vector<uint8_t> want = pattern(300 * kKiB + 123, 1);
    ASSERT_TRUE(f.value()->append(want).is_ok());
    EXPECT_EQ(env_->file_size("f").value(), 300 * kKiB); // tail buffered
    for (uint32_t i = 0; i < 3; ++i) {
        std::vector<uint8_t> small = pattern(1000, 10 + i);
        ASSERT_TRUE(f.value()->append(small).is_ok());
        append_to(&want, small);
    }
    ASSERT_TRUE(f.value()->sync().is_ok());
    ASSERT_TRUE(f.value()->close().is_ok());
    expect_reads_back(env_.get(), "f", want);
    EXPECT_EQ(env_->extent_count("f"), 1u);
    const EnvStats &st = env_->stats();
    EXPECT_EQ(st.files_created, 1u);
    EXPECT_EQ(st.bytes_appended, want.size());
    EXPECT_EQ(st.bytes_read, want.size() + want.size() / 2);
    EXPECT_EQ(st.gc_relocated_bytes, 0u);
    EXPECT_EQ(st.zones_reclaimed, 0u);
}

// A direct append that runs past the active zone's end splits into one
// extent per zone; the padded tail lands right after the second.
TEST_F(ZonedEnvTest, DirectAppendCrossesAZone)
{
    auto pre = env_->new_writable("pre");
    ASSERT_TRUE(pre.value()->append(pattern(kMiB, 2)).is_ok());
    ASSERT_TRUE(pre.value()->close().is_ok());
    const uint64_t zone_bytes = arr_.vol->zone_capacity() * kSectorSize;
    std::vector<uint8_t> want = pattern(zone_bytes + 777, 3);
    auto f = env_->new_writable("x");
    ASSERT_TRUE(f.value()->append(want).is_ok());
    ASSERT_TRUE(f.value()->close().is_ok());
    expect_reads_back(env_.get(), "x", want);
    EXPECT_EQ(env_->extent_count("pre"), 1u);
    EXPECT_EQ(env_->extent_count("x"), 2u);
    const EnvStats &st = env_->stats();
    EXPECT_EQ(st.files_created, 2u);
    EXPECT_EQ(st.bytes_appended, kMiB + want.size());
    EXPECT_EQ(st.bytes_read, want.size() + want.size() / 2);
    EXPECT_EQ(st.gc_relocated_bytes, 0u);
}

// The cleaner relocates a file written by the direct path (whole
// sectors straight from the caller, padded tails at each sync) and the
// file still reads back byte for byte.
TEST_F(ZonedEnvTest, CleanerRelocatesDirectlyWrittenFile)
{
    auto keep = env_->new_writable("keep");
    auto kill = env_->new_writable("kill");
    std::vector<uint8_t> want;
    for (uint32_t i = 0; i < 8; ++i) {
        std::vector<uint8_t> k = pattern(256 * kKiB + 100, 20 + i);
        ASSERT_TRUE(keep.value()->append(k).is_ok());
        ASSERT_TRUE(keep.value()->sync().is_ok());
        append_to(&want, k);
        ASSERT_TRUE(kill.value()->append(pattern(256 * kKiB, 40 + i)).is_ok());
        ASSERT_TRUE(kill.value()->sync().is_ok());
    }
    ASSERT_TRUE(keep.value()->close().is_ok());
    ASSERT_TRUE(kill.value()->close().is_ok());
    // One extent per round: the direct write and its padded tail are
    // contiguous; "kill" lands between rounds.
    const size_t keep_extents = env_->extent_count("keep");
    EXPECT_EQ(keep_extents, 8u);
    ASSERT_TRUE(env_->delete_file("kill").is_ok());

    // Fill until the cleaner has to move "keep".
    auto filler = env_->new_writable("filler");
    std::vector<uint8_t> mb = pattern(256 * kKiB, 60);
    for (int i = 0; i < 200 && env_->stats().gc_relocated_bytes == 0; ++i)
        ASSERT_TRUE(filler.value()->append(mb).is_ok());
    ASSERT_TRUE(filler.value()->close().is_ok());
    const EnvStats &st = env_->stats();
    // The victim is the first zone, where only "keep" is live: all of
    // its 65-sector rounds move, and nothing else does.
    EXPECT_EQ(st.gc_relocated_bytes, 8 * 65 * kSectorSize);
    EXPECT_EQ(st.zones_reclaimed, 1u);
    expect_reads_back(env_.get(), "keep", want);
    // Relocation moves extent by extent and merges none.
    EXPECT_EQ(env_->extent_count("keep"), keep_extents);
    EXPECT_EQ(st.files_created, 3u);
    EXPECT_EQ(st.files_deleted, 1u);
}

class BlockEnvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        BenchScale scale;
        scale.zones_per_device = 9;
        scale.zone_cap_sectors = 256;
        scale.data_mode = DataMode::kStore;
        arr_ = make_mdraid_array(scale);
        env_ = std::make_unique<BlockEnv>(arr_.loop.get(),
                                          arr_.vol.get());
    }

    MdArray arr_;
    std::unique_ptr<BlockEnv> env_;
};

TEST_F(BlockEnvTest, TailRewriteAcrossSyncs)
{
    auto f = env_->new_writable("wal");
    std::string all;
    for (int i = 0; i < 20; ++i) {
        std::string rec(100, static_cast<char>('a' + i % 26));
        ASSERT_TRUE(f.value()->append(bytes_of(rec)).is_ok());
        ASSERT_TRUE(f.value()->sync().is_ok());
        all += rec;
    }
    ASSERT_TRUE(f.value()->close().is_ok());
    EXPECT_EQ(env_->file_size("wal").value(), all.size());
    auto r = env_->open_readable("wal");
    auto data = r.value()->read(0, all.size());
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ(std::string(data.value().begin(), data.value().end()), all);
}

// The BlockEnv direct path: a >= 256 KiB append into an empty buffer
// is written straight from the caller's bytes, its unaligned tail
// padded on the device and rewritten in place by the next spill.
TEST_F(BlockEnvTest, DirectAppendKeepsUnalignedTail)
{
    auto f = env_->new_writable("f");
    ASSERT_TRUE(f.is_ok());
    std::vector<uint8_t> want = pattern(300 * kKiB + 123, 1);
    ASSERT_TRUE(f.value()->append(want).is_ok());
    EXPECT_EQ(env_->file_size("f").value(), want.size()); // nothing held
    for (uint32_t i = 0; i < 3; ++i) {
        std::vector<uint8_t> small = pattern(1000, 10 + i);
        ASSERT_TRUE(f.value()->append(small).is_ok());
        append_to(&want, small);
    }
    ASSERT_TRUE(f.value()->sync().is_ok());
    ASSERT_TRUE(f.value()->close().is_ok());
    expect_reads_back(env_.get(), "f", want);
    EXPECT_EQ(env_->extent_count("f"), 1u);
    const EnvStats &st = env_->stats();
    EXPECT_EQ(st.files_created, 1u);
    EXPECT_EQ(st.bytes_appended, want.size());
    // The tail rewrite reads below the file API: not in bytes_read.
    EXPECT_EQ(st.bytes_read, want.size() + want.size() / 2);
}

// BlockEnv has no zones and no cleaner; its crossing is between two
// allocated extents. A freed 1 MiB hole takes the first 256 sectors of
// the stream (the old partial tail sector rewritten in place, then the
// caller's bytes) and the rest lands after the live file.
TEST_F(BlockEnvTest, DirectAppendCrossesAnExtentAfterTail)
{
    auto a = env_->new_writable("a");
    ASSERT_TRUE(a.value()->append(bytes_of("a")).is_ok());
    ASSERT_TRUE(a.value()->close().is_ok());
    auto b = env_->new_writable("b");
    ASSERT_TRUE(b.value()->append(bytes_of("b")).is_ok());
    ASSERT_TRUE(b.value()->close().is_ok());
    ASSERT_TRUE(env_->delete_file("a").is_ok());

    auto f = env_->new_writable("x");
    std::vector<uint8_t> want = pattern(1000, 5);
    ASSERT_TRUE(f.value()->append(want).is_ok());
    ASSERT_TRUE(f.value()->sync().is_ok());
    std::vector<uint8_t> big = pattern(kMiB + 777, 6);
    ASSERT_TRUE(f.value()->append(big).is_ok());
    append_to(&want, big);
    ASSERT_TRUE(f.value()->close().is_ok());
    expect_reads_back(env_.get(), "x", want);
    EXPECT_EQ(env_->extent_count("x"), 2u);
    const EnvStats &st = env_->stats();
    EXPECT_EQ(st.files_created, 3u);
    EXPECT_EQ(st.files_deleted, 1u);
    EXPECT_EQ(st.bytes_appended, 2 + want.size());
    EXPECT_EQ(st.bytes_read, want.size() + want.size() / 2);
}

} // namespace
} // namespace raizn
