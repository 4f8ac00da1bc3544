/**
 * @file
 * Deterministic discrete-event simulation loop. All devices, volumes,
 * workload jobs, and application layers share one loop; virtual time is
 * counted in nanoseconds (Tick).
 *
 * Determinism: events at the same tick fire in the order they were
 * scheduled (a monotonically increasing sequence number breaks ties), so
 * a given seed always produces an identical run.
 *
 * Storage: the queue is a 4-ary min-heap of 24 B (when, seq, slot) keys;
 * each key's callback, tag and host stamp sit in a slab slot that sifts
 * never move. A popped callback is moved out of its slot, and the slot
 * freed, before it runs: it may schedule events that reuse the slot or
 * grow the slab.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.h"
#include "common/slab.h"
#include "common/units.h"

namespace raizn {

/**
 * Scheduling counters for the loop. Every in-flight IO, timer, and
 * callback in the simulation is a queued event, so queue depth is the
 * system-wide in-flight depth and the schedule delay (when - now at
 * schedule time) is each event's queue-wait attribution on the virtual
 * clock.
 */
struct EventLoopStats {
    uint64_t events_scheduled = 0;
    uint64_t events_processed = 0;
    uint64_t max_pending = 0; ///< high-water mark of the queue depth

    /// Name/value enumeration — single source of truth for metrics-
    /// registry linkage (obs::link_stats) and rendering.
    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("events_scheduled", events_scheduled);
        fn("events_processed", events_processed);
        fn("max_pending", max_pending);
    }
};

class EventLoop
{
  public:
    using Callback = std::function<void()>;
    /// Observes every dispatched event: (tick, schedule sequence number).
    using Observer = std::function<void(Tick, uint64_t)>;
    /// Lightweight dispatch hook for samplers (see set_probe).
    using Probe = std::function<void(Tick)>;

    EventLoop() = default;
    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /// Current virtual time.
    Tick now() const { return now_; }

    /// Schedules `fn` to run at absolute tick `when` (>= now()).
    void
    schedule_at(Tick when, Callback fn)
    {
        schedule_at(when, nullptr, std::move(fn));
    }

    /**
     * Tagged variant: `tag` must be a string literal (or otherwise
     * immortal). When the host profiler is enabled the dispatch runs
     * inside a "sim.cb.<tag>" scope with host-clock queue-wait
     * attribution; untagged events fall under "sim.cb.untagged".
     */
    void schedule_at(Tick when, const char *tag, Callback fn);

    /// Schedules `fn` to run `delay` ticks from now.
    void
    schedule_after(Tick delay, Callback fn)
    {
        schedule_at(now_ + delay, nullptr, std::move(fn));
    }

    /// Tagged variant of schedule_after (see tagged schedule_at).
    void
    schedule_after(Tick delay, const char *tag, Callback fn)
    {
        schedule_at(now_ + delay, tag, std::move(fn));
    }

    /// Runs events until the queue is empty. Returns events processed.
    uint64_t run();

    /// Runs events with time <= `until`; leaves later events queued.
    uint64_t run_until(Tick until);

    /**
     * Runs until `pred()` is true or the queue drains. Checks after each
     * event. Returns true if the predicate was satisfied.
     */
    bool run_until_pred(const std::function<bool()> &pred);

    /// Runs exactly `n` events (or fewer if the queue drains).
    uint64_t run_events(uint64_t n);

    bool empty() const { return heap_.empty(); }
    size_t pending() const { return heap_.size(); }
    uint64_t events_processed() const { return stats_.events_processed; }

    /// Cumulative scheduling counters (stable address for linkage).
    const EventLoopStats &stats() const { return stats_; }
    /// Distribution of (when - now) at schedule time, in ns: how far
    /// into the future each event was queued (device service delays,
    /// timer waits). Stable address; link via obs::link_histogram.
    const Histogram &sched_delay_hist() const { return sched_delay_ns_; }

    /**
     * Installs a per-event dispatch hook (pass nullptr to remove). The
     * observer fires before each event's callback runs, receiving the
     * event's tick and schedule sequence number. Because the loop is
     * deterministic, the observed (tick, seq) stream identifies a
     * schedule exactly: the crash-point explorer hashes it to prove a
     * replay followed the recorded schedule.
     */
    void set_observer(Observer obs) { observer_ = std::move(obs); }

    /**
     * Installs a sampling hook (pass nullptr to remove), independent of
     * the observer slot so the crash-point explorer and a timeline
     * sampler can coexist. Fires once per dispatched event, after the
     * event's callback runs, so a sample taken at a boundary reflects
     * all work dispatched at ticks up to and including it. The probe
     * must not schedule events or mutate simulation state — it exists
     * so a sampler can notice virtual-time boundaries lazily without
     * keeping the queue artificially non-empty.
     */
    void set_probe(Probe p) { probe_ = std::move(p); }

    /// Advances the clock with no event (e.g. idle gaps in workloads).
    void
    advance_to(Tick t)
    {
        if (t > now_)
            now_ = t;
    }

  private:
    struct Key {
        Tick when;
        uint64_t seq;
        uint32_t slot; ///< index into slots_
    };
    struct Slot {
        Callback fn;
        const char *tag = nullptr; ///< profiler callback tag (may be null)
        uint64_t sched_host = 0; ///< host ns at schedule time; 0 = unstamped
    };

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }
    void push(Key k);
    Key pop();
    bool pop_and_run();

    std::vector<Key> heap_; ///< 4-ary min-heap on (when, seq)
    Slab<Slot> slots_;
    Tick now_ = 0;
    uint64_t next_seq_ = 0;
    EventLoopStats stats_;
    Histogram sched_delay_ns_;
    Observer observer_;
    Probe probe_;
};

} // namespace raizn
