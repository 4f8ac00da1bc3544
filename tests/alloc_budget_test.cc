/**
 * @file
 * Heap-allocation budget of the member-command hop. This binary
 * replaces the global operator new with a counting one, warms a healthy
 * RAIZN array on timing-only members, and asserts that 64 KiB writes
 * and 4 KiB reads then cost at most a small fixed number of
 * allocations per logical op. The event queue, device completions,
 * retrier state and read joins are pooled; a regression that puts a
 * per-command allocation back on that path breaks the budget.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "wkld/setup.h"

namespace {
uint64_t g_news = 0;
bool g_counting = false;
} // namespace

void *
operator new(size_t n)
{
    if (g_counting)
        g_news++;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
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

    // Warm: every pool grows to its working size.
    w.run(arr.loop.get(), 2048, false);
    r.written = w.written;
    r.run(arr.loop.get(), 8192, false);

    constexpr uint64_t kOps = 4096;
    const double per_write =
        static_cast<double>(w.run(arr.loop.get(), kOps, true)) / kOps;
    r.written = w.written;
    const double per_read =
        static_cast<double>(r.run(arr.loop.get(), kOps, true)) / kOps;
    ASSERT_EQ(w.errors + r.errors, 0u);
    ASSERT_EQ(w.done + r.done, 2048 + 8192 + 2 * kOps);
    // Each write still builds its partial-parity entry's inline bytes
    // (1.3 per write when this test was written, 17.5 before the hop
    // was pooled); each read its sub-read closure (1 per read, was 9).
    EXPECT_LE(per_write, 3.0);
    EXPECT_LE(per_read, 2.0);
}

} // namespace
} // namespace raizn
