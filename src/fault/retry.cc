#include "fault/retry.h"

#include <algorithm>

#include "fault/health.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

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
    uint32_t slot = ops_.acquire();
    OpState &st = ops_[slot];
    st.dev = dev;
    st.idx = dev_index;
    st.orig = std::move(req);
    st.cb = std::move(cb);
    st.first_gen = ops_.gen(slot) + 1; // the generation issue() takes
    st.first_submit = loop_->now();
    issue(slot);
}

// Health escalation can run arbitrary array code (a failed member is
// marked synchronously), which may submit more ops and move the slab:
// re-index ops_[slot] after any call out instead of holding a
// reference across it.

void
IoRetrier::issue(uint32_t slot)
{
    ops_[slot].attempts++;
    uint32_t gen = ops_.bump(slot);
    if (policy_.io_deadline > 0) {
        loop_->schedule_after(policy_.io_deadline, "retry.deadline",
                              [this, slot, gen] {
            if (ops_.gen(slot) != gen)
                return;
            // The attempt outlived the watchdog: count a timeout,
            // invalidate its eventual completion, and retry.
            if (timeouts_)
                (*timeouts_)++;
            if (HealthMonitor *h = health_for(ops_[slot]))
                h->record_timeout(ops_[slot].idx);
            ops_.bump(slot);
            handle_retryable(
                slot, Status(StatusCode::kIoError, "io deadline exceeded"));
        });
    }
    const OpState &st = ops_[slot];
    // The attempt shares the original's payload: every attempt, and a
    // superseded one still queued in the device, holds a reference.
    IoRequest req = st.use_active ? st.active : st.orig;
    st.dev->submit(std::move(req), [this, slot, gen](IoResult r) {
        if (ops_.gen(slot) != gen)
            return; // superseded by the watchdog
        on_complete(slot, std::move(r));
    });
}

void
IoRetrier::on_complete(uint32_t slot, IoResult r)
{
    PROF_SCOPE("retry.complete");
    if (r.status.is_ok()) {
        if (HealthMonitor *h = health_for(ops_[slot]))
            h->record_success(ops_[slot].idx, r.latency());
        const OpState &st = ops_[slot];
        if (st.synth_flush) {
            // The write's payload already landed; the flush made it
            // durable. Report success for the original command.
            IoResult out;
            out.status = Status::ok();
            out.lba = st.orig.slba;
            out.submit_tick = st.first_submit;
            out.complete_tick = r.complete_tick;
            finish(slot, std::move(out));
            return;
        }
        r.submit_tick = st.first_submit;
        finish(slot, std::move(r));
        return;
    }

    StatusCode code = r.status.code();
    if (code == StatusCode::kIoError || code == StatusCode::kBusy) {
        if (HealthMonitor *h = health_for(ops_[slot]))
            h->record_error(ops_[slot].idx);
        handle_retryable(slot, r.status);
        return;
    }
    const OpState &st = ops_[slot];
    if (code == StatusCode::kWritePointerMismatch &&
        st.orig.op == IoOp::kWrite && st.dev->geometry().zoned) {
        // Self-inflicted ordering under concurrent retries, not a
        // device fault: probe the zone and resubmit what is missing,
        // without consuming the transient budget.
        if (st.attempts >= policy_.attempt_cap) {
            exhaust(slot, r.status);
            return;
        }
        retry_after(slot, backoff_for(1), "retry.backoff");
        return;
    }
    // Non-retryable (kOffline, kInvalidArgument, kNoSpace, ...): the
    // caller decides what it means.
    r.submit_tick = st.first_submit;
    finish(slot, std::move(r));
}

void
IoRetrier::handle_retryable(uint32_t slot, Status why)
{
    OpState &st = ops_[slot];
    if (st.transient >= policy_.max_transient_retries ||
        st.attempts >= policy_.attempt_cap) {
        exhaust(slot, std::move(why));
        return;
    }
    st.transient++;
    if (retries_)
        (*retries_)++;
    retry_after(slot, backoff_for(st.transient), "retry.backoff");
}

void
IoRetrier::retry_after(uint32_t slot, Tick delay, const char *tag)
{
    loop_->schedule_after(delay, tag, [this, slot, gen = ops_.gen(slot)] {
        // Still this op's slot: live (it holds a callback) and not
        // reused since (reuse starts past every generation it used).
        const OpState &st = ops_[slot];
        if (st.cb && gen >= st.first_gen)
            prepare_attempt(slot);
    });
}

void
IoRetrier::prepare_attempt(uint32_t slot)
{
    OpState &st = ops_[slot];
    st.synth_flush = false;
    st.use_active = false;
    if (st.orig.op == IoOp::kWrite && st.dev->geometry().zoned) {
        const DeviceGeometry &g = st.dev->geometry();
        uint32_t zone = static_cast<uint32_t>(st.orig.slba / g.zone_size);
        auto zi = st.dev->zone_info(zone);
        if (!zi.is_ok()) {
            IoResult r;
            r.status = zi.status();
            r.submit_tick = st.first_submit;
            r.complete_tick = loop_->now();
            finish(slot, std::move(r));
            return;
        }
        uint64_t wp = zi.value().wp;
        uint64_t end = st.orig.slba + st.orig.nsectors;
        if (wp >= end) {
            // Payload already on media (e.g. a torn write covered it,
            // or the error hit after the data landed).
            if (st.orig.fua) {
                st.active = IoRequest::flush();
                // Synthesized on behalf of the original write: the
                // flush inherits its provenance.
                st.active.cause = st.orig.cause;
                st.use_active = true;
                st.synth_flush = true;
                issue(slot);
                return;
            }
            IoResult r;
            r.status = Status::ok();
            r.lba = st.orig.slba;
            r.submit_tick = st.first_submit;
            r.complete_tick = loop_->now();
            if (HealthMonitor *h = health_for(st))
                h->record_success(st.idx, 0);
            finish(slot, std::move(r));
            return;
        }
        if (wp > st.orig.slba) {
            // Torn: resubmit only the missing tail.
            uint64_t skip = wp - st.orig.slba;
            st.active = st.orig;
            st.active.slba = wp;
            st.active.nsectors =
                st.orig.nsectors - static_cast<uint32_t>(skip);
            if (!st.orig.data.empty())
                st.active.data = st.orig.data.slice(
                    static_cast<size_t>(skip) * kSectorSize,
                    size_t{st.active.nsectors} * kSectorSize);
            st.use_active = true;
            issue(slot);
            return;
        }
        if (wp < st.orig.slba) {
            // An earlier sub-IO to this zone has not landed yet. Waiting
            // must not consume the attempt budget while the zone is
            // draining: under a deep write pipeline a whole queue of
            // successors parks behind one backing-off command, and the
            // time to drain scales with queue depth, not with this
            // command's own health. Only consecutive probes that find
            // the write pointer STUCK count toward exhaustion — a stuck
            // wp means the predecessor itself is failing, and its
            // outcome (not queue depth) bounds how long that lasts.
            bool progress = st.last_wp != UINT64_MAX && wp > st.last_wp;
            st.last_wp = wp;
            st.stalls = progress ? 0 : st.stalls + 1;
            if (st.stalls > policy_.attempt_cap) {
                exhaust(slot, Status(StatusCode::kWritePointerMismatch,
                                     "predecessor never landed"));
                return;
            }
            // Probe interval backs off (bounded) so a stalled queue
            // outlives the predecessor's worst-case retry backoff.
            retry_after(slot, backoff_for(std::min(st.stalls, 4u)),
                        nullptr);
            return;
        }
        // wp == slba: full resubmit.
    }
    issue(slot);
}

void
IoRetrier::exhaust(uint32_t slot, Status why)
{
    if (HealthMonitor *h = health_for(ops_[slot]))
        h->record_op_failure(ops_[slot].idx);
    IoResult r;
    r.status = why.is_ok()
                   ? Status(StatusCode::kIoError, "retries exhausted")
                   : std::move(why);
    r.submit_tick = ops_[slot].first_submit;
    r.complete_tick = loop_->now();
    finish(slot, std::move(r));
}

void
IoRetrier::finish(uint32_t slot, IoResult r)
{
    IoCallback cb = std::move(ops_[slot].cb);
    ops_.release(slot);
    cb(std::move(r));
}

} // namespace raizn
