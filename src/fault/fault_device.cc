#include "fault/fault_device.h"

#include "sim/event_loop.h"

namespace raizn {

namespace {

bool
is_write_like(IoOp op)
{
    return op == IoOp::kWrite || op == IoOp::kAppend || op == IoOp::kFlush;
}

bool
is_zone_mgmt(IoOp op)
{
    return op == IoOp::kZoneReset || op == IoOp::kZoneFinish ||
           op == IoOp::kZoneOpen || op == IoOp::kZoneClose;
}

} // namespace

FaultInjectingDevice::FaultInjectingDevice(EventLoop *loop,
                                           BlockDevice *inner,
                                           FaultConfig config)
    : loop_(loop), inner_(inner), config_(config), rng_(config.seed)
{
}

FaultInjectingDevice::Draw
FaultInjectingDevice::draw()
{
    // Always five samples per command, in a fixed order, so the fault
    // schedule for command N depends only on the seed and N.
    Draw d;
    d.err = rng_.next_double();
    d.zone = rng_.next_double();
    d.torn = rng_.next_double();
    d.flip = rng_.next_double();
    d.stuck = rng_.next_double();
    return d;
}

void
FaultInjectingDevice::inject_once(IoOp op, FaultKind kind)
{
    one_shots_.emplace_back(op, kind);
}

bool
FaultInjectingDevice::take_injection(IoOp op, FaultKind kind)
{
    for (auto it = one_shots_.begin(); it != one_shots_.end(); ++it) {
        if (it->first == op && it->second == kind) {
            one_shots_.erase(it);
            return true;
        }
    }
    return false;
}

void
FaultInjectingDevice::deliver(IoCallback cb, IoResult r, Tick extra)
{
    if (extra == 0) {
        cb(std::move(r));
        return;
    }
    auto shared =
        std::make_shared<std::pair<IoCallback, IoResult>>(std::move(cb),
                                                          std::move(r));
    loop_->schedule_after(extra, [this, shared] {
        shared->second.complete_tick = loop_->now();
        shared->first(std::move(shared->second));
    });
}

void
FaultInjectingDevice::submit(IoRequest req, IoCallback cb)
{
    if (inner_->failed()) {
        // Let the inner device produce its kOffline completion so hard
        // failure detection behaves exactly as without the wrapper.
        inner_->submit(std::move(req), std::move(cb));
        return;
    }

    fstats_.ops++;
    Draw d = draw();
    const IoOp op = req.op;
    const bool writeish = is_write_like(op);
    const bool zoneish = writeish || is_zone_mgmt(op);
    Tick slow_extra = 0;
    if (config_.latency_multiplier > 1.0 || config_.stuck_rate > 0 ||
        !one_shots_.empty()) {
        if (d.stuck < config_.stuck_rate ||
            take_injection(op, FaultKind::kStuck)) {
            slow_extra += config_.stuck_delay;
            fstats_.stuck_ios++;
        }
    }

    // 1. Transient command error: the command never reaches the device.
    double err_rate =
        op == IoOp::kRead ? config_.read_error_rate
                          : (writeish ? config_.write_error_rate : 0.0);
    if (d.err < err_rate || take_injection(op, FaultKind::kIoError)) {
        if (op == IoOp::kRead)
            fstats_.read_errors++;
        else
            fstats_.write_errors++;
        IoResult r;
        r.status = Status(StatusCode::kIoError, "injected transient error");
        r.submit_tick = loop_->now();
        r.complete_tick = loop_->now() + config_.error_latency;
        deliver(std::move(cb), std::move(r),
                config_.error_latency + slow_extra);
        return;
    }

    // 2. Transient zone-state error (ZNS contract violation): kBusy.
    if (zoneish && (d.zone < config_.zone_error_rate ||
                    take_injection(op, FaultKind::kZoneBusy))) {
        fstats_.zone_errors++;
        IoResult r;
        r.status = Status(StatusCode::kBusy, "injected zone-state error");
        r.submit_tick = loop_->now();
        r.complete_tick = loop_->now() + config_.error_latency;
        deliver(std::move(cb), std::move(r),
                config_.error_latency + slow_extra);
        return;
    }

    // 3. Torn multi-sector write: forward a sector prefix, fail the
    // command. The inner write pointer advances by the prefix only.
    if (op == IoOp::kWrite && req.nsectors > 1 &&
        (d.torn < config_.torn_write_rate ||
         take_injection(op, FaultKind::kTornWrite))) {
        fstats_.torn_writes++;
        uint32_t keep = 1 + static_cast<uint32_t>(
                                rng_.next_below(req.nsectors - 1));
        IoRequest prefix = req;
        prefix.nsectors = keep;
        prefix.fua = false; // the command fails; nothing is acked durable
        if (!prefix.data.empty()) // a shorter view of the same bytes
            prefix.data = prefix.data.prefix(size_t{keep} * kSectorSize);
        Tick extra = slow_extra;
        inner_->submit(std::move(prefix),
                       [this, cb = std::move(cb), extra](IoResult r) {
                           r.status =
                               Status(StatusCode::kIoError, "injected torn write");
                           Tick d2 = extra;
                           if (config_.latency_multiplier > 1.0)
                               d2 += static_cast<Tick>(
                                   (config_.latency_multiplier - 1.0) *
                                   static_cast<double>(r.latency()));
                           deliver(std::move(cb), std::move(r), d2);
                       });
        return;
    }

    // 4/5. Forwarded command, possibly with a silent read bit-flip and
    // fail-slow delay on the completion.
    bool flip = op == IoOp::kRead &&
                (d.flip < config_.bitflip_rate ||
                 take_injection(op, FaultKind::kBitflip));
    uint64_t flip_sel = flip ? rng_.next() : 0;
    inner_->submit(
        std::move(req),
        [this, cb = std::move(cb), flip, flip_sel,
         slow_extra](IoResult r) {
            if (flip && r.status.is_ok() && !r.data.empty()) {
                // The device filled this buffer for this command, so
                // it is held alone; mutable_data() would copy a shared
                // one rather than flip bytes other holders see.
                uint64_t bit = flip_sel % (r.data.size() * 8);
                r.data.mutable_data()[bit / 8] ^=
                    static_cast<uint8_t>(1u << (bit % 8));
                fstats_.bitflips++;
            }
            Tick extra = slow_extra;
            if (config_.latency_multiplier > 1.0)
                extra += static_cast<Tick>(
                    (config_.latency_multiplier - 1.0) *
                    static_cast<double>(r.latency()));
            deliver(std::move(cb), std::move(r), extra);
        });
}

} // namespace raizn
