#include "sim/event_loop.h"

#include <cassert>
#include <utility>

#include "obs/prof/prof.h"

namespace raizn {

void
EventLoop::schedule_at(Tick when, const char *tag, Callback fn)
{
    assert(fn);
    if (when < now_)
        when = now_; // never schedule into the past
    stats_.events_scheduled++;
    sched_delay_ns_.add(when - now_);
    uint32_t slot = slots_.acquire();
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.tag = tag;
    // Host-clock stamp for queue-wait attribution; only while the
    // profiler is measuring, so the disabled path never reads a clock.
    s.sched_host = prof::enabled() ? prof::host_now_ns() : 0;
    push(Key{when, next_seq_++, slot});
    if (heap_.size() > stats_.max_pending)
        stats_.max_pending = heap_.size();
}

void
EventLoop::push(Key k)
{
    size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
        size_t parent = (i - 1) / 4;
        if (!before(k, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = k;
}

EventLoop::Key
EventLoop::pop()
{
    Key top = heap_[0];
    Key last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0)
        return top;
    size_t i = 0;
    for (;;) {
        size_t first = 4 * i + 1;
        if (first >= n)
            break;
        size_t end = first + 4 < n ? first + 4 : n;
        size_t min = first;
        for (size_t c = first + 1; c < end; ++c)
            if (before(heap_[c], heap_[min]))
                min = c;
        if (!before(heap_[min], last))
            break;
        heap_[i] = heap_[min];
        i = min;
    }
    heap_[i] = last;
    return top;
}

bool
EventLoop::pop_and_run()
{
    if (heap_.empty())
        return false;
    Key k = pop();
    Slot &s = slots_[k.slot];
    Callback fn = std::move(s.fn);
    const char *tag = s.tag;
    uint64_t sched_host = s.sched_host;
    slots_.release(k.slot);
    assert(k.when >= now_);
    now_ = k.when;
    stats_.events_processed++;
    // Mirror the virtual clock into the profiler (plain store) and
    // bump the unconditional events/sec meter.
    prof::set_virtual_now(now_);
    prof::count_event();
    if (observer_)
        observer_(k.when, k.seq);
    if (prof::enabled()) {
        prof::Site *site = prof::event_site(tag);
        if (sched_host != 0)
            prof::add_queue_wait(site, prof::host_now_ns() - sched_host);
        prof::Scope scope(site);
        fn();
    } else {
        fn();
    }
    // After the callback, so a row stamped at boundary B reflects all
    // work dispatched at ticks <= B (the callback may have cleared the
    // probe, hence the re-check).
    if (probe_)
        probe_(now_);
    return true;
}

uint64_t
EventLoop::run()
{
    uint64_t n = 0;
    while (pop_and_run())
        n++;
    return n;
}

uint64_t
EventLoop::run_until(Tick until)
{
    uint64_t n = 0;
    while (!heap_.empty() && heap_[0].when <= until) {
        pop_and_run();
        n++;
    }
    if (now_ < until)
        now_ = until;
    return n;
}

bool
EventLoop::run_until_pred(const std::function<bool()> &pred)
{
    while (!pred()) {
        if (!pop_and_run())
            return pred();
    }
    return true;
}

uint64_t
EventLoop::run_events(uint64_t n)
{
    uint64_t done = 0;
    while (done < n && pop_and_run())
        done++;
    return done;
}

} // namespace raizn
