/**
 * @file
 * Tests for the LSM KV store: bloom filters, SSTables, puts/gets/
 * deletes, memtable flushes, compaction shape (down to the bottom
 * level), and end-to-end operation on both environments.
 */
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.h"
#include "env_test_util.h"
#include "kv/bloom.h"
#include "kv/db.h"

namespace raizn {
namespace {

TEST(BloomTest, NoFalseNegatives)
{
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i)
        keys.push_back("key" + std::to_string(i));
    auto filter = BloomFilter::build(keys);
    for (const auto &k : keys)
        EXPECT_TRUE(BloomFilter::may_contain(filter, k));
}

TEST(BloomTest, LowFalsePositiveRate)
{
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i)
        keys.push_back("key" + std::to_string(i));
    auto filter = BloomFilter::build(keys);
    int fp = 0;
    for (int i = 0; i < 10000; ++i) {
        if (BloomFilter::may_contain(filter,
                                     "absent" + std::to_string(i)))
            fp++;
    }
    EXPECT_LT(fp, 300) << "false positive rate too high";
}

class KvFixture : public ::testing::Test
{
  public:
    static std::string
    key(int i)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "key%08d", i);
        return buf;
    }

  protected:
    void
    SetUp() override
    {
        BenchScale scale;
        scale.zones_per_device = 12;
        scale.zone_cap_sectors = 1024; // 4 MiB zones
        scale.data_mode = DataMode::kStore;
        arr_ = make_raizn_array(scale);
        env_ = std::make_unique<ZonedEnv>(arr_.loop.get(),
                                          arr_.vol.get());
        DbOptions opt;
        opt.memtable_bytes = 256 * kKiB;
        opt.target_file_bytes = 256 * kKiB;
        opt.l1_bytes = 1 * kMiB;
        auto db = Db::open(env_.get(), opt);
        ASSERT_TRUE(db.is_ok());
        db_ = std::move(db).value();
    }

    RaiznArray arr_;
    std::unique_ptr<ZonedEnv> env_;
    std::unique_ptr<Db> db_;
};

TEST(SstTest, WriteAndReadBack)
{
    BenchScale scale;
    scale.zones_per_device = 9;
    scale.zone_cap_sectors = 512;
    scale.data_mode = DataMode::kStore;
    auto arr = make_raizn_array(scale);
    ZonedEnv env(arr.loop.get(), arr.vol.get());

    std::vector<KvEntry> entries;
    for (int i = 0; i < 500; ++i)
        entries.emplace_back(KvFixture::key(i),
                             "value" + std::to_string(i));
    entries.emplace_back("zzz-deleted", std::nullopt);
    ASSERT_TRUE(SstWriter::write(&env, "test.sst", entries).is_ok());

    auto reader = SstReader::open(&env, "test.sst");
    ASSERT_TRUE(reader.is_ok());
    EXPECT_EQ(reader.value()->smallest(), KvFixture::key(0));
    EXPECT_EQ(reader.value()->largest(), "zzz-deleted");

    bool tomb = false;
    auto v = reader.value()->get(KvFixture::key(250), &tomb);
    ASSERT_TRUE(v.is_ok());
    EXPECT_EQ(v.value(), "value250");
    EXPECT_FALSE(tomb);

    v = reader.value()->get("zzz-deleted", &tomb);
    EXPECT_TRUE(tomb);

    v = reader.value()->get("nokey", &tomb);
    EXPECT_EQ(v.status().code(), StatusCode::kNotFound);

    auto all = reader.value()->load_all();
    ASSERT_TRUE(all.is_ok());
    EXPECT_EQ(all.value().size(), 501u);
}

TEST_F(KvFixture, PutGetRoundTrip)
{
    ASSERT_TRUE(db_->put("a", "1").is_ok());
    ASSERT_TRUE(db_->put("b", "2").is_ok());
    EXPECT_EQ(db_->get("a").value(), "1");
    EXPECT_EQ(db_->get("b").value(), "2");
    EXPECT_EQ(db_->get("c").status().code(), StatusCode::kNotFound);
}

TEST_F(KvFixture, OverwriteAndDelete)
{
    ASSERT_TRUE(db_->put("k", "v1").is_ok());
    ASSERT_TRUE(db_->put("k", "v2").is_ok());
    EXPECT_EQ(db_->get("k").value(), "v2");
    ASSERT_TRUE(db_->delete_key("k").is_ok());
    EXPECT_EQ(db_->get("k").status().code(), StatusCode::kNotFound);
}

TEST_F(KvFixture, SurvivesMemtableFlush)
{
    for (int i = 0; i < 500; ++i)
        ASSERT_TRUE(db_->put(key(i), std::string(1000, 'x')).is_ok());
    EXPECT_GT(db_->stats().memtable_flushes, 0u);
    for (int i = 0; i < 500; ++i) {
        auto v = db_->get(key(i));
        ASSERT_TRUE(v.is_ok()) << key(i) << ": "
                               << v.status().to_string();
        EXPECT_EQ(v.value().size(), 1000u);
    }
}

TEST_F(KvFixture, DeleteAcrossFlushIsTombstoned)
{
    ASSERT_TRUE(db_->put("gone", "soon").is_ok());
    ASSERT_TRUE(db_->flush_all().is_ok());
    ASSERT_TRUE(db_->delete_key("gone").is_ok());
    ASSERT_TRUE(db_->flush_all().is_ok());
    EXPECT_EQ(db_->get("gone").status().code(), StatusCode::kNotFound);
}

TEST_F(KvFixture, BloomFilterSkipsAreCounted)
{
    // Even keys go into a flushed table; odd keys fall inside its key
    // range but are absent, so only the bloom filter can skip them.
    for (int i = 0; i < 200; i += 2)
        ASSERT_TRUE(db_->put(key(i), "v").is_ok());
    ASSERT_TRUE(db_->flush_all().is_ok());
    EXPECT_EQ(db_->stats().bloom_skips, 0u);
    for (int i = 1; i < 200; i += 2) {
        EXPECT_EQ(db_->get(key(i)).status().code(),
                  StatusCode::kNotFound);
    }
    // ~1% false positives at 10 bits per key.
    EXPECT_GE(db_->stats().bloom_skips, 90u);
    EXPECT_LE(db_->stats().bloom_skips, 100u);
}

TEST_F(KvFixture, CompactionKeepsNewestValues)
{
    // Write the same keys repeatedly to force flushes + compactions.
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 300; ++i) {
            ASSERT_TRUE(
                db_->put(key(i), "round" + std::to_string(round) + "-" +
                                     std::to_string(i))
                    .is_ok());
        }
        ASSERT_TRUE(db_->flush_all().is_ok());
    }
    EXPECT_GT(db_->stats().compactions, 0u);
    for (int i = 0; i < 300; ++i) {
        auto v = db_->get(key(i));
        ASSERT_TRUE(v.is_ok());
        EXPECT_EQ(v.value(), "round5-" + std::to_string(i));
    }
    // L0 kept under control.
    EXPECT_LT(db_->level_file_counts()[0], 4u);
}

TEST_F(KvFixture, RandomWorkloadConsistency)
{
    // Property test: random puts/deletes mirrored into a std::map.
    Rng rng(7);
    std::map<std::string, std::string> model;
    for (int op = 0; op < 3000; ++op) {
        std::string k = key(static_cast<int>(rng.next_below(400)));
        if (rng.next_bool(0.8)) {
            std::string v = "v" + std::to_string(op);
            ASSERT_TRUE(db_->put(k, v).is_ok());
            model[k] = v;
        } else {
            ASSERT_TRUE(db_->delete_key(k).is_ok());
            model.erase(k);
        }
    }
    for (int i = 0; i < 400; ++i) {
        std::string k = key(i);
        auto v = db_->get(k);
        auto mit = model.find(k);
        if (mit == model.end()) {
            EXPECT_EQ(v.status().code(), StatusCode::kNotFound) << k;
        } else {
            ASSERT_TRUE(v.is_ok()) << k;
            EXPECT_EQ(v.value(), mit->second) << k;
        }
    }
}

TEST(KvOnBlockEnvTest, WorksOnMdraid)
{
    BenchScale scale;
    scale.zones_per_device = 12;
    scale.zone_cap_sectors = 1024;
    scale.data_mode = DataMode::kStore;
    auto arr = make_mdraid_array(scale);
    BlockEnv env(arr.loop.get(), arr.vol.get());
    DbOptions opt;
    opt.memtable_bytes = 256 * kKiB;
    auto db = Db::open(&env, opt);
    ASSERT_TRUE(db.is_ok());
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(db.value()
                        ->put(KvFixture::key(i), std::string(500, 'y'))
                        .is_ok());
    }
    for (int i = 0; i < 1000; i += 37) {
        auto v = db.value()->get(KvFixture::key(i));
        ASSERT_TRUE(v.is_ok());
        EXPECT_EQ(v.value().size(), 500u);
    }
}

// Overwrites and deletes until compaction has merged level 1 into the
// bottom level, level 2, where tombstones are dropped; then every key
// reads back as its newest write left it.
class DbCompactionTest : public ::testing::TestWithParam<EnvKind>
{
};

TEST_P(DbCompactionTest, MergesDownToTheBottomLevel)
{
    BenchScale scale;
    scale.zones_per_device = 12;
    scale.zone_cap_sectors = 1024;
    EnvStack stack(GetParam(), scale);
    DbOptions opt;
    opt.memtable_bytes = 64 * kKiB;
    opt.target_file_bytes = 64 * kKiB;
    opt.l1_bytes = 256 * kKiB;
    opt.max_levels = 3;
    auto db = Db::open(stack.env.get(), opt);
    ASSERT_TRUE(db.is_ok());
    constexpr int kKeys = 1500;
    Rng rng(11);
    std::map<std::string, std::optional<std::string>> model;
    int op = 0;
    auto one_op = [&] {
        const std::string k =
            KvFixture::key(static_cast<int>(rng.next_below(kKeys)));
        if (rng.next_bool(0.8)) {
            std::string v = "v" + std::to_string(op) + std::string(300, 'x');
            ASSERT_TRUE(db.value()->put(k, v).is_ok());
            model[k] = std::move(v);
        } else {
            ASSERT_TRUE(db.value()->delete_key(k).is_ok());
            model[k] = std::nullopt;
        }
        op++;
    };
    for (; op < 100000 && db.value()->level_file_counts()[2] == 0;)
        ASSERT_NO_FATAL_FAILURE(one_op());
    ASSERT_GT(db.value()->level_file_counts()[2], 0u);
    // Three times as many again, so level-1 files also merge into
    // existing bottom-level files.
    for (const int end = 4 * op; op < end;)
        ASSERT_NO_FATAL_FAILURE(one_op());

    size_t live = 0, deleted = 0;
    for (const auto &[k, v] : model) {
        auto got = db.value()->get(k);
        if (v) {
            ASSERT_TRUE(got.is_ok()) << k << ": " << got.status().to_string();
            EXPECT_EQ(got.value(), *v) << k;
            live++;
        } else {
            EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << k;
            deleted++;
        }
    }
    EXPECT_GT(live, 0u);
    EXPECT_GT(deleted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Envs, DbCompactionTest,
    ::testing::Values(EnvKind::kZonedRaizn, EnvKind::kBlockMdraid),
    [](const ::testing::TestParamInfo<EnvKind> &info) {
        return env_kind_name(info.param);
    });

} // namespace
} // namespace raizn
