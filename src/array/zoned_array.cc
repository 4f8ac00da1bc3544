#include "array/zoned_array.h"

#include <bit>
#include <cassert>
#include <utility>

#include "array/stripe_gather.h"
#include "common/logging.h"
#include "obs/session.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

/// Fallback span label when the submitter didn't annotate a stage.
const char *
default_dev_stage(IoOp op)
{
    switch (op) {
    case IoOp::kRead:
        return "dev.read";
    case IoOp::kWrite:
        return "dev.write";
    case IoOp::kAppend:
        return "dev.append";
    case IoOp::kFlush:
        return "dev.flush";
    case IoOp::kZoneReset:
        return "dev.zone_reset";
    case IoOp::kZoneFinish:
        return "dev.zone_finish";
    case IoOp::kZoneOpen:
        return "dev.zone_open";
    case IoOp::kZoneClose:
        return "dev.zone_close";
    }
    return "dev.io";
}

} // namespace

ZonedArray::ZonedArray(EventLoop *loop, std::vector<BlockDevice *> devs,
                       StatCells cells)
    : loop_(loop), devs_(std::move(devs)), cells_(cells)
{
    assert(devs_.size() <= 64); // one bit per member in failed_mask_
    health_ = std::make_unique<HealthMonitor>(
        static_cast<uint32_t>(devs_.size()));
    health_->set_escalation([this](uint32_t dev, HealthEvent ev) {
        on_health_event(dev, ev);
    });
    retrier_ = std::make_unique<IoRetrier>(loop_, RetryPolicy{},
                                           health_.get(),
                                           cells_.io_retries,
                                           cells_.io_timeouts, &devs_);
    alive_ = std::make_shared<bool>(true);
}

ZonedArray::~ZonedArray()
{
    *alive_ = false;
    StripeGather::forget(this);
}

Result<ZoneInfo>
ZonedArray::zone_info(uint32_t zone) const
{
    (void)zone;
    return Status(StatusCode::kNotSupported,
                  "array is not zone-addressable");
}

void
ZonedArray::reset_zone(uint32_t zone, IoCallback cb)
{
    (void)zone;
    loop_->schedule_after(1, [cb = std::move(cb)] {
        IoResult r;
        r.status = Status(StatusCode::kNotSupported,
                          "zone reset unsupported on this array");
        cb(std::move(r));
    });
}

void
ZonedArray::finish_zone(uint32_t zone, IoCallback cb)
{
    (void)zone;
    loop_->schedule_after(1, [cb = std::move(cb)] {
        IoResult r;
        r.status = Status(StatusCode::kNotSupported,
                          "zone finish unsupported on this array");
        cb(std::move(r));
    });
}

bool
ZonedArray::members_store_data() const
{
    bool stores = true;
    for (BlockDevice *d : devs_)
        stores &= d->data_mode() == DataMode::kStore;
    return stores;
}

void
ZonedArray::set_resilience(const ResilienceConfig &rc)
{
    health_ = std::make_unique<HealthMonitor>(
        static_cast<uint32_t>(devs_.size()), rc.health);
    health_->set_escalation([this](uint32_t dev, HealthEvent ev) {
        on_health_event(dev, ev);
    });
    retrier_ = std::make_unique<IoRetrier>(loop_, rc.retry, health_.get(),
                                           cells_.io_retries,
                                           cells_.io_timeouts, &devs_);
    on_resilience_changed();
    // The monitor was replaced: any linked health counters would
    // dangle, so refresh the registry bindings in place.
    if (reg_ != nullptr)
        attach_observability(reg_, trace_);
}

void
ZonedArray::attach_observability(obs::MetricsRegistry *reg,
                                 obs::TraceRecorder *trace)
{
    reg_ = reg;
    trace_ = trace;
    dev_obs_.clear();
    write_lat_ = nullptr;
    read_lat_ = nullptr;
    if (reg == nullptr)
        return;
    const std::string self = metric_prefix();
    link_stats_hook(*reg);
    write_lat_ = reg->latency(self + ".write.total_ns");
    read_lat_ = reg->latency(self + ".read.total_ns");
    dev_obs_.resize(devs_.size());
    const std::string dev_ns = dev_metric_prefix();
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        std::string prefix = strprintf("%s.dev%u", dev_ns.c_str(), d);
        obs::link_stats(*reg, prefix, devs_[d]->stats());
        dev_obs_[d].read_ns = reg->latency(prefix + ".read_ns");
        dev_obs_[d].write_ns = reg->latency(prefix + ".write_ns");
        dev_obs_[d].flush_ns = reg->latency(prefix + ".flush_ns");
        dev_obs_[d].other_ns = reg->latency(prefix + ".other_ns");
        if (link_health_metrics())
            obs::link_stats(*reg,
                            strprintf("%s.health.dev%u", self.c_str(), d),
                            health_->device(d));
    }
}

void
ZonedArray::attach(obs::Session *session)
{
    if (session_ != nullptr)
        session_->forget(this);
    session_ = session;
    attach_observability(session ? &session->registry() : nullptr,
                         session ? &session->trace() : nullptr);
    attach_ledger(session ? &session->ledger() : nullptr);
    if (session != nullptr) {
        session->watch(loop_, num_devices(),
                       [this](obs::Timeline *tl) { install_timeline(tl); });
    }
}

void
ZonedArray::attach_ledger(obs::IoLedger *ledger)
{
    ledger_ = ledger;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (ledger != nullptr)
            ledger->attach_device(d, devs_[d]);
        devs_[d]->set_ledger(ledger, d);
    }
}

void
ZonedArray::dev_submit(uint32_t dev, IoRequest req, IoCallback cb)
{
    // Provenance funnel: every data-path sub-I/O must arrive tagged.
    // The untagged note makes the conservation audit fail loudly and
    // name the stage, instead of silently misattributing the bytes.
    if (ledger_ != nullptr && req.cause == obs::Cause::kUntagged)
        ledger_->note_untagged_submit(req.trace_stage);
    if (trace_ != nullptr || !dev_obs_.empty()) {
        const char *stage = req.trace_stage != nullptr
            ? req.trace_stage
            : default_dev_stage(req.op);
        uint64_t token = trace_ != nullptr
            ? trace_->begin_span(stage, req.trace_req,
                                 obs::kTrackDevBase + dev, loop_->now())
            : 0;
        obs::LatencyMetric *lat = nullptr;
        if (!dev_obs_.empty()) {
            const DevObs &o = dev_obs_[dev];
            switch (req.op) {
            case IoOp::kRead:
                lat = o.read_ns;
                break;
            case IoOp::kWrite:
            case IoOp::kAppend:
                lat = o.write_ns;
                break;
            case IoOp::kFlush:
                lat = o.flush_ns;
                break;
            default:
                lat = o.other_ns;
                break;
            }
        }
        Tick t0 = loop_->now();
        cb = [this, token, lat, t0, inner = std::move(cb)](IoResult r) {
            Tick now = loop_->now();
            if (trace_ != nullptr && token != 0)
                trace_->end_span(token, now);
            if (lat != nullptr)
                lat->record(now - t0);
            inner(std::move(r));
        };
    }
    retrier_->submit(devs_[dev], dev, std::move(req), std::move(cb));
}

IoCallback
ZonedArray::observe_io(bool write, uint32_t nsectors, const char *span,
                       IoCallback cb, uint64_t *treq)
{
    uint64_t req = 0;
    uint64_t token = 0;
    if (trace_ != nullptr && span != nullptr) {
        req = trace_->next_request_id();
        token = trace_->begin_span(span, req, obs::kTrackRequest,
                                   loop_->now());
    }
    if (treq != nullptr)
        *treq = req;
    if (ledger_ == nullptr && token == 0 &&
        (write ? write_lat_ : read_lat_) == nullptr)
        return cb;
    return [this, write, nsectors, token, ledger = ledger_,
            t0 = loop_->now(), cb = std::move(cb)](IoResult r) {
        Tick now = loop_->now();
        if (trace_ != nullptr && token != 0)
            trace_->end_span(token, now);
        if (obs::LatencyMetric *lat = write ? write_lat_ : read_lat_)
            lat->record(now - t0);
        if (ledger != nullptr && r.status.is_ok()) {
            if (write)
                ledger->note_user_write(nsectors);
            else
                ledger->note_user_read(nsectors);
        }
        cb(std::move(r));
    };
}

void
ZonedArray::mark_device_failed(uint32_t dev)
{
    if (dev >= num_devices()) {
        LOG_ERROR("%s: mark_device_failed: no member %u",
                  metric_prefix().c_str(), dev);
        return;
    }
    if (is_marked_failed(dev))
        return;
    note_failed(dev);
    if (!within_tolerance()) {
        LOG_ERROR("%s: member %u failed beyond tolerance (%u failed, "
                  "tolerance %u): %s",
                  metric_prefix().c_str(), dev, failed_count_,
                  fault_tolerance(), write_refusal().to_string().c_str());
        return;
    }
    LOG_INFO("%s: member %u marked failed; serving degraded",
             metric_prefix().c_str(), dev);
    if (!devs_[dev]->failed())
        devs_[dev]->fail();
    maybe_start_auto_rebuild(dev);
}

void
ZonedArray::note_failed(uint32_t dev)
{
    if (is_marked_failed(dev))
        return;
    failed_mask_ |= uint64_t{1} << dev;
    ++failed_count_;
    if (first_failed_ < 0)
        first_failed_ = static_cast<int>(dev);
}

void
ZonedArray::clear_failed(uint32_t dev)
{
    if (!is_marked_failed(dev))
        return;
    failed_mask_ &= ~(uint64_t{1} << dev);
    --failed_count_;
    if (first_failed_ == static_cast<int>(dev))
        first_failed_ =
            failed_mask_ != 0 ? std::countr_zero(failed_mask_) : -1;
}

Status
ZonedArray::write_refusal() const
{
    return Status(StatusCode::kOffline, "insufficient surviving members");
}

bool
ZonedArray::refuse_write(IoCallback &cb)
{
    if (within_tolerance())
        return false;
    loop_->schedule_after(1, [cb = std::move(cb), s = write_refusal()] {
        IoResult r;
        r.status = s;
        cb(std::move(r));
    });
    return true;
}

bool
ZonedArray::escalate_dev_error(uint32_t dev, const Status &s)
{
    ++*cells_.dev_errors;
    if (s.code() == StatusCode::kOffline) {
        // An abrupt device death is non-retryable and bypasses the
        // retrier's health accounting; record the terminal failure so
        // the health trail matches the failover decision.
        health_->record_op_failure(dev);
        mark_device_failed(dev);
    } else if (health_->should_fail(dev)) {
        mark_device_failed(dev);
    }
    return is_marked_failed(dev) && within_tolerance();
}

// ---- Member fan-out ----------------------------------------------------

ZonedArray::MemberJoin::MemberJoin(ZonedArray *arr, IoCallback done)
    : arr_(arr), slot_(arr->joins_.acquire())
{
    arr->joins_[slot_].done = std::move(done);
}

IoCallback
ZonedArray::MemberJoin::member(uint32_t dev)
{
    Join &j = arr_->joins_[slot_];
    j.pending++;
    j.sent = true;
    return [arr = arr_, slot = slot_, dev](IoResult r) {
        arr->join_arrive(slot, dev, std::move(r.status));
    };
}

void
ZonedArray::MemberJoin::send(uint32_t dev, IoRequest req)
{
    arr_->dev_submit(dev, std::move(req), member(dev));
}

void
ZonedArray::MemberJoin::seal()
{
    Join &j = arr_->joins_[slot_];
    j.sealed = true;
    if (j.sent) {
        if (j.pending == 0)
            arr_->join_settle(slot_);
        return;
    }
    j.first = Status(StatusCode::kOffline, "no live members");
    arr_->loop_->schedule_after(
        1, [arr = arr_, slot = slot_, alive = arr_->alive_] {
            if (*alive)
                arr->join_settle(slot);
        });
}

void
ZonedArray::join_arrive(uint32_t slot, uint32_t dev, Status s)
{
    if (!s.is_ok() && !escalate_dev_error(dev, s) &&
        joins_[slot].first.is_ok())
        joins_[slot].first = std::move(s);
    Join &j = joins_[slot];
    if (--j.pending == 0 && j.sealed)
        join_settle(slot);
}

void
ZonedArray::join_settle(uint32_t slot)
{
    IoResult out;
    out.status = std::move(joins_[slot].first);
    IoCallback done = std::move(joins_[slot].done);
    joins_.release(slot);
    done(std::move(out));
}

void
ZonedArray::fan_out(const IoRequest &req, IoCallback done)
{
    MemberJoin join(this, std::move(done));
    for (uint32_t d = 0; d < num_devices(); ++d)
        if (member_up(d))
            join.send(d, req);
    join.seal();
}

void
ZonedArray::maybe_start_auto_rebuild(uint32_t dev)
{
    if (!lifecycle_.auto_rebuild || spare_ == nullptr ||
        !is_marked_failed(dev) || !within_tolerance() || rebuild_running())
        return;
    const DeviceGeometry &sg = spare_->geometry();
    const DeviceGeometry &mg = devs_[dev]->geometry();
    if (spare_->failed() || sg.zoned != mg.zoned ||
        sg.nzones != mg.nzones || sg.zone_size != mg.zone_size ||
        sg.zone_capacity != mg.zone_capacity ||
        sg.nsectors < mg.nsectors) {
        LOG_ERROR("%s: hot spare unusable for slot %u; staying degraded",
                  metric_prefix().c_str(), dev);
        return;
    }
    ++*cells_.auto_failovers;
    // Defer off the error path: mark_device_failed can run deep inside
    // an IO completion, and promotion + rebuild kick-off must not
    // reenter it.
    loop_->schedule_after(1, [this, dev, alive = alive_] {
        if (!*alive || spare_ == nullptr || !is_marked_failed(dev) ||
            !within_tolerance() || rebuild_running())
            return;
        devs_[dev] = spare_;
        spare_ = nullptr;
        health_->reset_device(dev);
        ++*cells_.spares_promoted;
        // The slot now points at a different physical device whose
        // counters started from zero: re-baseline the audit marks and
        // route its recording into this slot.
        if (ledger_ != nullptr) {
            ledger_->rebind_device(dev, devs_[dev]);
            devs_[dev]->set_ledger(ledger_, dev);
        }
        on_spare_promoted(dev);
        LOG_INFO("%s: hot spare promoted into slot %u",
                 metric_prefix().c_str(), dev);
        rebuild_device(dev, nullptr, [this, dev, alive](Status s) {
            if (!*alive)
                return;
            if (!s.is_ok())
                LOG_ERROR("%s: automatic rebuild of slot %u failed: %s",
                          metric_prefix().c_str(), dev,
                          s.to_string().c_str());
            if (lifecycle_.on_rebuild_done)
                lifecycle_.on_rebuild_done(dev, s);
        });
    });
}

void
ZonedArray::start_rebuild_throttle()
{
    throttle_.reset();
    throttle_armed_ = false;
    if (lifecycle_.throttle.rate_sectors_per_sec > 0)
        throttle_ =
            std::make_unique<RebuildThrottle>(loop_, lifecycle_.throttle);
}

void
ZonedArray::rebuild_stalled(uint64_t sectors, std::function<void()> resume)
{
    ++*cells_.throttle_stalls;
    if (throttle_armed_)
        return;
    throttle_armed_ = true;
    loop_->schedule_after(throttle_->ns_until(sectors),
                          [this, resume = std::move(resume),
                           alive = alive_] {
                              if (!*alive)
                                  return;
                              throttle_armed_ = false;
                              resume();
                          });
}

void
ZonedArray::on_health_event(uint32_t dev, HealthEvent ev)
{
    if (ev == HealthEvent::kFailed)
        mark_device_failed(dev);
}

} // namespace raizn
