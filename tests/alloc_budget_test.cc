/**
 * @file
 * Heap-allocation budgets. This binary replaces the global operator
 * new with a counting one.
 *
 * The member-command hop: a healthy RAIZN array on timing-only members,
 * once warm, must spend at most a small fixed number of allocations per
 * 64 KiB write and 4 KiB read. The event queue, device completions,
 * retrier state and read joins are pooled; a regression that puts a
 * per-command allocation back on that path breaks the budget.
 *
 * The kStore write path above the volume: a ZonedEnv append allocates
 * one buffer per volume write and nothing the size of the payload
 * besides, and a Db put's WAL record lives in one reused buffer.
 *
 * The member fan-out: a warm flush, on RAIZN and on the raid5 engine,
 * stays within the allocations it made before flushes went through the
 * shared ZonedArray join.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "array/engine.h"
#include "common/rng.h"
#include "env/zoned_env.h"
#include "kv/db.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "wkld/setup.h"

namespace {
uint64_t g_news = 0;
uint64_t g_new_bytes = 0;
bool g_counting = false;
} // namespace

void *
operator new(size_t n)
{
    if (g_counting) {
        g_news++;
        g_new_bytes += n;
    }
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so GCC does not pair an inlined free() with an inlined
// operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

namespace raizn {
namespace {

/// Closed-loop driver at a fixed queue depth whose own completion
/// closures fit std::function's inline buffer, so every counted
/// allocation belongs to the array below it.
struct Driver {
    RaiznVolume *vol;
    bool writes;
    uint32_t qd;
    uint64_t limit = 0; ///< ops to issue in this phase
    uint64_t issued = 0;
    uint64_t done = 0;
    uint64_t errors = 0;
    uint32_t inflight = 0;
    uint64_t next_lba = 0; ///< next sequential write
    uint64_t written = 0; ///< sectors readable so far
    Rng rng{7};

    void
    pump()
    {
        while (inflight < qd && issued < limit) {
            inflight++;
            issued++;
            auto cb = [this](IoResult r) {
                inflight--;
                done++;
                errors += !r.status.is_ok();
                pump();
            };
            if (writes) {
                vol->write_len(next_lba, 16, {}, cb);
                next_lba += 16;
            } else {
                vol->read(rng.next_below(written), 1, cb);
            }
        }
    }

    /// Runs `n` ops; returns the allocations they made.
    uint64_t
    run(EventLoop *loop, uint64_t n, bool count)
    {
        limit = issued + n;
        g_news = 0;
        g_counting = count;
        pump();
        loop->run();
        g_counting = false;
        written = next_lba;
        return g_news;
    }
};

TEST(AllocBudget, WarmTimingOnlyHopAllocatesAlmostNothing)
{
    BenchScale scale; // 5 members, 64 KiB stripe units, timing-only
    RaiznArray arr = make_raizn_array(scale);
    Driver w{arr.vol.get(), true, 64};
    Driver r{arr.vol.get(), false, 256};

    // Warm: every pool grows to its working size. The device queues'
    // slabs track the deepest per-member queue the random reads build,
    // which still grows now and then after 8192 reads.
    w.run(arr.loop.get(), 2048, false);
    r.written = w.written;
    r.run(arr.loop.get(), 32768, false);

    constexpr uint64_t kOps = 4096;
    const double per_write =
        static_cast<double>(w.run(arr.loop.get(), kOps, true)) / kOps;
    r.written = w.written;
    const double per_read =
        static_cast<double>(r.run(arr.loop.get(), kOps, true)) / kOps;
    ASSERT_EQ(w.errors + r.errors, 0u);
    ASSERT_EQ(w.done + r.done, 2048 + 32768 + 2 * kOps);
    // Each write still builds its partial-parity entry's inline bytes
    // (1.3 per write when this test was written, 17.5 before the hop
    // was pooled). A read allocates nothing: its member-read and gather
    // completions capture a pooled slot and fit std::function's inline
    // buffer (1 per read before, 9 before the hop was pooled).
    EXPECT_LE(per_write, 3.0);
    EXPECT_EQ(per_read, 0.0);
}

/// Allocations per flush of `arr` once warm: a few writes give every
/// member something to flush, then flushes run one at a time.
double
allocs_per_flush(ZonedArray *arr, EventLoop *loop)
{
    uint64_t done = 0;
    auto count = [&done](IoResult r) { done += r.status.is_ok(); };
    for (uint64_t lba = 0; lba < 256; lba += 64) {
        arr->write_len(lba, 64, {}, count);
        loop->run();
    }
    constexpr int kWarm = 16;
    constexpr int kFlushes = 64;
    for (int i = 0; i < kWarm; ++i) {
        arr->flush(count);
        loop->run();
    }
    g_news = 0;
    g_counting = true;
    for (int i = 0; i < kFlushes; ++i) {
        arr->flush(count);
        loop->run();
    }
    g_counting = false;
    EXPECT_EQ(done, 4u + kWarm + kFlushes);
    return static_cast<double>(g_news) / kFlushes;
}

TEST(AllocBudget, WarmRaiznFlush)
{
    BenchScale scale; // 5 timing-only members
    RaiznArray arr = make_raizn_array(scale);
    // 21 per flush before the shared member join, whose member
    // completions fit std::function's inline buffer (17 with it).
    EXPECT_LE(allocs_per_flush(arr.vol.get(), arr.loop.get()), 21.0);
}

TEST(AllocBudget, WarmRaid5Flush)
{
    BenchScale scale;
    EventLoop loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < scale.num_devices; ++i) {
        ZnsDeviceConfig cfg;
        cfg.nzones = scale.zones_per_device;
        cfg.zone_size = scale.zone_cap_sectors;
        cfg.zone_capacity = scale.zone_cap_sectors;
        cfg.data_mode = scale.data_mode;
        cfg.timing = TimingParams::zns();
        devs.push_back(std::make_unique<ZnsDevice>(&loop, cfg));
        ptrs.push_back(devs.back().get());
    }
    EngineConfig ec;
    ec.mode = RaidMode::kRaid5;
    ec.su_sectors = scale.su_sectors;
    auto eng = ZonedEngine::create(&loop, ptrs, ec);
    ASSERT_TRUE(eng.is_ok()) << eng.status().to_string();
    // 23 per flush before the shared member join (16 with it).
    EXPECT_LE(allocs_per_flush(eng.value().get(), &loop), 23.0);
}

/// Bytes `fn` allocates.
template <typename Fn>
uint64_t
bytes_allocated_by(Fn fn)
{
    g_new_bytes = 0;
    g_counting = true;
    fn();
    g_counting = false;
    return g_new_bytes;
}

BenchScale
small_store_scale()
{
    BenchScale scale;
    scale.zones_per_device = 9; // 4 MiB logical zones
    scale.zone_cap_sectors = 256;
    scale.data_mode = DataMode::kStore;
    return scale;
}

TEST(AllocBudget, ZonedEnvAppendAllocatesOneBufferPerVolumeWrite)
{
    // A 4 MiB append plus close through ZonedEnv, against the same
    // volume writes issued on a twin array from buffers built before
    // counting: the difference is what the env allocates. It hands
    // RaiznVolume::write one buffer per write (4 MiB in all) and keeps
    // no payload-sized copy of its own.
    constexpr uint32_t kSectors = 1024;
    constexpr uint64_t kBytes = uint64_t{kSectors} * kSectorSize;
    const std::vector<uint8_t> payload = pattern_data(kSectors, 5);

    RaiznArray a = make_raizn_array(small_store_scale());
    ZonedEnv env(a.loop.get(), a.vol.get());
    auto f = env.new_writable("000001.sst");
    ASSERT_TRUE(f.is_ok());
    const uint64_t via_env = bytes_allocated_by([&] {
        ASSERT_TRUE(f.value()->append(payload).is_ok());
        ASSERT_TRUE(f.value()->close().is_ok());
    });
    ASSERT_EQ(a.vol->zone_capacity(), kSectors); // one volume write

    RaiznArray b = make_raizn_array(small_store_scale());
    std::vector<uint8_t> bytes = payload;
    const uint64_t direct = bytes_allocated_by([&] {
        bool ok = false;
        b.vol->write(0, std::move(bytes), {},
                     [&](IoResult r) { ok = r.status.is_ok(); });
        b.loop->run();
        ASSERT_TRUE(ok);
    });
    ASSERT_GE(via_env, direct);
    EXPECT_LE(via_env - direct, kBytes + 4 * kKiB);
}

TEST(AllocBudget, DbPutKeepsTheWalRecordInOneBuffer)
{
    // A warm put allocates its memtable node and the memtable's copy of
    // the value; the WAL record is built in a reused buffer and the
    // WAL's file buffer has already grown past its 256 KiB spill mark.
    constexpr size_t kValueBytes = 4000;
    RaiznArray a = make_raizn_array(small_store_scale());
    ZonedEnv env(a.loop.get(), a.vol.get());
    auto db = Db::open(&env, DbOptions{});
    ASSERT_TRUE(db.is_ok());
    std::vector<std::pair<std::string, std::string>> kvs;
    for (int i = 0; i < 102; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "key%012d", i); // 15 B: inline
        kvs.emplace_back(key, std::string(kValueBytes, static_cast<char>(i)));
    }
    // 70 puts of ~4 KiB records: the WAL spills once, at the 66th.
    for (int i = 0; i < 70; ++i)
        ASSERT_TRUE(db.value()->put(kvs[i].first, kvs[i].second).is_ok());
    constexpr int kPuts = 32; // no spill and no memtable flush
    const uint64_t bytes = bytes_allocated_by([&] {
        for (int i = 70; i < 70 + kPuts; ++i)
            ASSERT_TRUE(db.value()->put(kvs[i].first, kvs[i].second).is_ok());
    });
    EXPECT_EQ(db.value()->stats().memtable_flushes, 0u);
    EXPECT_LE(static_cast<double>(bytes) / kPuts, kValueBytes + 256.0);
}

} // namespace
} // namespace raizn
