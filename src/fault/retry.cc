#include "fault/retry.h"

#include <algorithm>

#include "fault/health.h"
#include "sim/event_loop.h"

namespace raizn {

struct IoRetrier::OpState {
    BlockDevice *dev = nullptr;
    uint32_t idx = 0;
    IoRequest orig; ///< original request (never mutated)
    IoRequest active; ///< request for the current attempt
    IoCallback cb;
    bool synth_flush = false; ///< active is a flush standing in for a
                              ///< write whose payload already landed
    uint32_t transient = 0; ///< transient-retry budget consumed
    uint32_t attempts = 0;
    uint32_t stalls = 0; ///< consecutive wp probes with no progress
    uint64_t last_wp = UINT64_MAX; ///< wp seen by the previous probe
    uint64_t cur = 0; ///< attempt id; stale completions are dropped
    bool done = false;
    Tick first_submit = 0;
};

IoRetrier::IoRetrier(EventLoop *loop, RetryPolicy policy,
                     HealthMonitor *health, uint64_t *retry_counter,
                     uint64_t *timeout_counter,
                     const std::vector<BlockDevice *> *slots)
    : loop_(loop), policy_(policy), health_(health), slots_(slots),
      retries_(retry_counter), timeouts_(timeout_counter),
      jitter_(policy.jitter_seed)
{
}

Tick
IoRetrier::backoff_for(uint32_t transient)
{
    Tick b = policy_.backoff_base;
    for (uint32_t i = 1; i < transient; ++i)
        b *= policy_.backoff_mult;
    // Small deterministic jitter breaks same-tick retry convoys.
    return b + jitter_.next_below(policy_.backoff_base / 4 + 1);
}

HealthMonitor *
IoRetrier::health_for(const OpState &st) const
{
    return (*slots_)[st.idx] == st.dev ? health_ : nullptr;
}

void
IoRetrier::submit(BlockDevice *dev, uint32_t dev_index, IoRequest req,
                  IoCallback cb)
{
    if (!policy_.enabled) {
        dev->submit(std::move(req), std::move(cb));
        return;
    }
    auto st = std::make_shared<OpState>();
    st->dev = dev;
    st->idx = dev_index;
    st->orig = std::move(req);
    st->active = st->orig;
    st->cb = std::move(cb);
    st->first_submit = loop_->now();
    issue(st);
}

void
IoRetrier::issue(const std::shared_ptr<OpState> &st)
{
    st->attempts++;
    uint64_t id = ++st->cur;
    if (policy_.io_deadline > 0) {
        loop_->schedule_after(policy_.io_deadline, "retry.deadline",
                              [this, st, id] {
            if (st->done || st->cur != id)
                return;
            // The attempt outlived the watchdog: count a timeout,
            // invalidate its eventual completion, and retry.
            if (timeouts_)
                (*timeouts_)++;
            if (HealthMonitor *h = health_for(*st))
                h->record_timeout(st->idx);
            st->cur++;
            handle_retryable(
                st, Status(StatusCode::kIoError, "io deadline exceeded"));
        });
    }
    st->dev->submit(IoRequest(st->active), [this, st, id](IoResult r) {
        if (st->done || st->cur != id)
            return; // superseded by the watchdog
        on_complete(st, std::move(r));
    });
}

void
IoRetrier::on_complete(const std::shared_ptr<OpState> &st, IoResult r)
{
    if (r.status.is_ok()) {
        if (HealthMonitor *h = health_for(*st))
            h->record_success(st->idx, r.latency());
        if (st->synth_flush) {
            // The write's payload already landed; the flush made it
            // durable. Report success for the original command.
            IoResult out;
            out.status = Status::ok();
            out.lba = st->orig.slba;
            out.submit_tick = st->first_submit;
            out.complete_tick = r.complete_tick;
            finish(st, std::move(out));
            return;
        }
        r.submit_tick = st->first_submit;
        finish(st, std::move(r));
        return;
    }

    StatusCode code = r.status.code();
    if (code == StatusCode::kIoError || code == StatusCode::kBusy) {
        if (HealthMonitor *h = health_for(*st))
            h->record_error(st->idx);
        handle_retryable(st, r.status);
        return;
    }
    if (code == StatusCode::kWritePointerMismatch &&
        st->orig.op == IoOp::kWrite && st->dev->geometry().zoned) {
        // Self-inflicted ordering under concurrent retries, not a
        // device fault: probe the zone and resubmit what is missing,
        // without consuming the transient budget.
        if (st->attempts >= policy_.attempt_cap) {
            exhaust(st, r.status);
            return;
        }
        loop_->schedule_after(backoff_for(1), "retry.backoff", [this, st] {
            if (!st->done)
                prepare_attempt(st);
        });
        return;
    }
    // Non-retryable (kOffline, kInvalidArgument, kNoSpace, ...): the
    // caller decides what it means.
    r.submit_tick = st->first_submit;
    finish(st, std::move(r));
}

void
IoRetrier::handle_retryable(const std::shared_ptr<OpState> &st, Status why)
{
    if (st->transient >= policy_.max_transient_retries ||
        st->attempts >= policy_.attempt_cap) {
        exhaust(st, std::move(why));
        return;
    }
    st->transient++;
    if (retries_)
        (*retries_)++;
    loop_->schedule_after(backoff_for(st->transient), "retry.backoff",
                          [this, st] {
        if (!st->done)
            prepare_attempt(st);
    });
}

void
IoRetrier::prepare_attempt(const std::shared_ptr<OpState> &st)
{
    st->synth_flush = false;
    if (st->orig.op == IoOp::kWrite && st->dev->geometry().zoned) {
        const DeviceGeometry &g = st->dev->geometry();
        uint32_t zone = static_cast<uint32_t>(st->orig.slba / g.zone_size);
        auto zi = st->dev->zone_info(zone);
        if (!zi.is_ok()) {
            IoResult r;
            r.status = zi.status();
            r.submit_tick = st->first_submit;
            r.complete_tick = loop_->now();
            finish(st, std::move(r));
            return;
        }
        uint64_t wp = zi.value().wp;
        uint64_t end = st->orig.slba + st->orig.nsectors;
        if (wp >= end) {
            // Payload already on media (e.g. a torn write covered it,
            // or the error hit after the data landed).
            if (st->orig.fua) {
                st->active = IoRequest::flush();
                // Synthesized on behalf of the original write: the
                // flush inherits its provenance.
                st->active.cause = st->orig.cause;
                st->synth_flush = true;
                issue(st);
                return;
            }
            IoResult r;
            r.status = Status::ok();
            r.lba = st->orig.slba;
            r.submit_tick = st->first_submit;
            r.complete_tick = loop_->now();
            if (HealthMonitor *h = health_for(*st))
                h->record_success(st->idx, 0);
            finish(st, std::move(r));
            return;
        }
        if (wp > st->orig.slba) {
            // Torn: resubmit only the missing tail.
            uint64_t skip = wp - st->orig.slba;
            st->active = st->orig;
            st->active.slba = wp;
            st->active.nsectors =
                st->orig.nsectors - static_cast<uint32_t>(skip);
            if (!st->orig.data.empty())
                st->active.data.assign(
                    st->orig.data.begin() +
                        static_cast<size_t>(skip) * kSectorSize,
                    st->orig.data.end());
            issue(st);
            return;
        }
        if (wp < st->orig.slba) {
            // An earlier sub-IO to this zone has not landed yet. Waiting
            // must not consume the attempt budget while the zone is
            // draining: under a deep write pipeline a whole queue of
            // successors parks behind one backing-off command, and the
            // time to drain scales with queue depth, not with this
            // command's own health. Only consecutive probes that find
            // the write pointer STUCK count toward exhaustion — a stuck
            // wp means the predecessor itself is failing, and its
            // outcome (not queue depth) bounds how long that lasts.
            bool progress = st->last_wp != UINT64_MAX && wp > st->last_wp;
            st->last_wp = wp;
            st->stalls = progress ? 0 : st->stalls + 1;
            if (st->stalls > policy_.attempt_cap) {
                exhaust(st, Status(StatusCode::kWritePointerMismatch,
                                   "predecessor never landed"));
                return;
            }
            // Probe interval backs off (bounded) so a stalled queue
            // outlives the predecessor's worst-case retry backoff.
            loop_->schedule_after(backoff_for(std::min(st->stalls, 4u)),
                                  [this, st] {
                                      if (!st->done)
                                          prepare_attempt(st);
                                  });
            return;
        }
        // wp == slba: full resubmit.
    }
    st->active = st->orig;
    issue(st);
}

void
IoRetrier::exhaust(const std::shared_ptr<OpState> &st, Status why)
{
    if (HealthMonitor *h = health_for(*st))
        h->record_op_failure(st->idx);
    IoResult r;
    r.status = why.is_ok()
                   ? Status(StatusCode::kIoError, "retries exhausted")
                   : std::move(why);
    r.submit_tick = st->first_submit;
    r.complete_tick = loop_->now();
    finish(st, std::move(r));
}

void
IoRetrier::finish(const std::shared_ptr<OpState> &st, IoResult r)
{
    st->done = true;
    IoCallback cb = std::move(st->cb);
    st->cb = nullptr;
    cb(std::move(r));
}

} // namespace raizn
