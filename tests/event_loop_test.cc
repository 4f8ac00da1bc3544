/**
 * @file
 * Unit tests for the discrete-event loop: ordering, determinism,
 * run modes, and a randomized comparison against a reference
 * std::priority_queue loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/event_loop.h"

namespace raizn {
namespace {

TEST(EventLoopTest, RunsInTimeOrder)
{
    EventLoop loop;
    std::vector<int> order;
    loop.schedule_at(30, [&] { order.push_back(3); });
    loop.schedule_at(10, [&] { order.push_back(1); });
    loop.schedule_at(20, [&] { order.push_back(2); });
    EXPECT_EQ(loop.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 30u);
}

TEST(EventLoopTest, TiesBreakBySubmissionOrder)
{
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        loop.schedule_at(100, [&order, i] { order.push_back(i); });
    loop.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ScheduleAfterUsesNow)
{
    EventLoop loop;
    Tick fired = 0;
    loop.schedule_at(50, [&] {
        loop.schedule_after(25, [&] { fired = loop.now(); });
    });
    loop.run();
    EXPECT_EQ(fired, 75u);
}

TEST(EventLoopTest, PastSchedulesClampToNow)
{
    EventLoop loop;
    Tick fired = 0;
    loop.schedule_at(100, [&] {
        loop.schedule_at(10, [&] { fired = loop.now(); });
    });
    loop.run();
    EXPECT_EQ(fired, 100u);
}

TEST(EventLoopTest, RunUntilLeavesLaterEvents)
{
    EventLoop loop;
    int fired = 0;
    loop.schedule_at(10, [&] { fired++; });
    loop.schedule_at(20, [&] { fired++; });
    loop.schedule_at(30, [&] { fired++; });
    EXPECT_EQ(loop.run_until(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(loop.now(), 20u);
    EXPECT_EQ(loop.pending(), 1u);
    loop.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, RunUntilAdvancesClockWhenIdle)
{
    EventLoop loop;
    loop.run_until(500);
    EXPECT_EQ(loop.now(), 500u);
}

TEST(EventLoopTest, RunUntilPred)
{
    EventLoop loop;
    int count = 0;
    for (int i = 1; i <= 5; ++i)
        loop.schedule_at(static_cast<Tick>(i) * 10, [&] { count++; });
    EXPECT_TRUE(loop.run_until_pred([&] { return count >= 3; }));
    EXPECT_EQ(count, 3);
    EXPECT_EQ(loop.now(), 30u);
    // Predicate that never fires drains the queue and returns false.
    EXPECT_FALSE(loop.run_until_pred([&] { return count >= 100; }));
    EXPECT_EQ(count, 5);
}

TEST(EventLoopTest, RunEventsCountsExactly)
{
    EventLoop loop;
    int count = 0;
    for (int i = 0; i < 5; ++i)
        loop.schedule_after(1, [&] { count++; });
    EXPECT_EQ(loop.run_events(2), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(loop.run_events(100), 3u);
}

TEST(EventLoopTest, CascadedEventsDeterministic)
{
    // Two identical runs produce identical event traces.
    auto trace = [](uint64_t seed) {
        EventLoop loop;
        std::vector<Tick> ticks;
        std::function<void(int)> step = [&](int depth) {
            ticks.push_back(loop.now());
            if (depth < 20)
                loop.schedule_after((seed + depth) % 7 + 1,
                                    [&step, depth] { step(depth + 1); });
        };
        loop.schedule_at(0, [&] { step(0); });
        loop.run();
        return ticks;
    };
    EXPECT_EQ(trace(3), trace(3));
}

/// Reference loop: the textbook std::priority_queue of whole events,
/// with the same clamp-to-now and (when, seq) order the loop promises.
class RefLoop
{
  public:
    Tick now() const { return now_; }
    size_t pending() const { return q_.size(); }
    uint64_t max_pending() const { return max_pending_; }

    void
    schedule_at(Tick when, std::function<void()> fn)
    {
        q_.push(Ev{std::max(when, now_), seq_++, std::move(fn)});
        max_pending_ = std::max<uint64_t>(max_pending_, q_.size());
    }
    void
    schedule_after(Tick delay, std::function<void()> fn)
    {
        schedule_at(now_ + delay, std::move(fn));
    }
    void set_observer(std::function<void(Tick, uint64_t)> o) { obs_ = o; }
    void set_probe(std::function<void(Tick)> p) { probe_ = p; }

    uint64_t
    run()
    {
        uint64_t n = 0;
        while (step())
            n++;
        return n;
    }
    uint64_t
    run_until(Tick until)
    {
        uint64_t n = 0;
        while (!q_.empty() && q_.top().when <= until) {
            step();
            n++;
        }
        now_ = std::max(now_, until);
        return n;
    }
    bool
    run_until_pred(const std::function<bool()> &pred)
    {
        while (!pred()) {
            if (!step())
                return pred();
        }
        return true;
    }
    uint64_t
    run_events(uint64_t n)
    {
        uint64_t done = 0;
        while (done < n && step())
            done++;
        return done;
    }

  private:
    struct Ev {
        Tick when;
        uint64_t seq;
        std::function<void()> fn;
    };
    struct Later {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return std::tie(a.when, a.seq) > std::tie(b.when, b.seq);
        }
    };

    bool
    step()
    {
        if (q_.empty())
            return false;
        Ev ev = q_.top();
        q_.pop();
        now_ = ev.when;
        if (obs_)
            obs_(ev.when, ev.seq);
        ev.fn();
        if (probe_)
            probe_(now_);
        return true;
    }

    std::priority_queue<Ev, std::vector<Ev>, Later> q_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
    uint64_t max_pending_ = 0;
    std::function<void(Tick, uint64_t)> obs_;
    std::function<void(Tick)> probe_;
};

/**
 * One randomized schedule, driven through every run mode: closures are
 * too big for std::function's inline buffer, and each event may
 * schedule children at the current tick, a little later, far later, or
 * in the past. Returns the log of observer, callback and probe calls
 * plus the loop's end state.
 */
template <typename Loop>
std::vector<std::string>
drive(Loop &loop, uint64_t seed)
{
    std::vector<std::string> log;
    Rng rng(seed);
    uint64_t fired = 0;
    loop.set_observer([&](Tick t, uint64_t seq) {
        log.push_back("obs " + std::to_string(t) + " " +
                      std::to_string(seq));
    });
    loop.set_probe([&](Tick t) { log.push_back("probe " + std::to_string(t)); });

    std::function<void(uint64_t, uint32_t)> post;
    post = [&](uint64_t id, uint32_t depth) {
        std::array<uint64_t, 4> pad{id, depth, id ^ depth, ~id};
        Tick when;
        switch (rng.next_below(4)) {
        case 0: when = loop.now(); break;
        case 1: when = loop.now() + rng.next_below(8); break;
        case 2: when = loop.now() + rng.next_below(100000); break;
        default: when = loop.now() > 5 ? loop.now() - 5 : 0; break;
        }
        loop.schedule_at(when, [&, id, depth, pad] {
            fired++;
            log.push_back("run " + std::to_string(id) + "@" +
                          std::to_string(loop.now()) + " " +
                          std::to_string(pad[2]));
            uint64_t kids = depth < 6 ? rng.next_below(3) : 0;
            for (uint64_t k = 0; k < kids; ++k)
                post(id * 4 + k + 1, depth + 1);
        });
    };
    const uint64_t roots = 50 + rng.next_below(200);
    for (uint64_t i = 0; i < roots; ++i)
        post(i << 32, 0);

    loop.run_events(rng.next_below(64));
    log.push_back("until " + std::to_string(loop.run_until(loop.now() + 5000)));
    const uint64_t target = fired + rng.next_below(128);
    log.push_back(std::string("pred ") +
                  (loop.run_until_pred([&] { return fired >= target; })
                       ? "met"
                       : "drained"));
    for (uint64_t i = 0; i < 16; ++i)
        post((1ull << 60) + i, 3); // late arrivals into the running heap
    log.push_back("run " + std::to_string(loop.run()));
    log.push_back("end " + std::to_string(loop.now()) + " " +
                  std::to_string(loop.pending()));
    loop.set_observer(nullptr);
    loop.set_probe(nullptr);
    return log;
}

TEST(EventLoopTest, MatchesReferenceQueueOnRandomSchedules)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        EventLoop loop;
        RefLoop ref;
        std::vector<std::string> got = drive(loop, seed);
        std::vector<std::string> want = drive(ref, seed);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " line " << i;
        EXPECT_EQ(loop.stats().max_pending, ref.max_pending())
            << "seed " << seed;
        EXPECT_EQ(loop.stats().events_processed,
                  loop.stats().events_scheduled);
    }
}

} // namespace
} // namespace raizn
