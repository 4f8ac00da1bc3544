#include "zns/zns_device.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/ledger.h"
#include "sim/event_loop.h"

namespace raizn {

ZnsDevice::ZnsDevice(EventLoop *loop, ZnsDeviceConfig config)
    : loop_(loop), config_(std::move(config))
{
    if (config_.zone_capacity == 0)
        config_.zone_capacity = config_.zone_size;
    assert(config_.zone_capacity <= config_.zone_size);
    assert(config_.nzones > 0);

    geom_.zoned = true;
    geom_.zone_size = config_.zone_size;
    geom_.zone_capacity = config_.zone_capacity;
    geom_.nzones = config_.nzones;
    geom_.nsectors = config_.zone_size * config_.nzones;
    geom_.max_open_zones = config_.max_open_zones;
    geom_.max_active_zones = config_.max_active_zones;
    geom_.max_append_sectors = config_.max_append_sectors;
    geom_.atomic_write_sectors = config_.atomic_write_sectors;

    timing_ = std::make_unique<TimingModel>(*loop_, config_.timing);
    timing_->set_busy_accumulator(&stats_.busy_ns);
    zones_.reserve(config_.nzones);
    for (uint32_t i = 0; i < config_.nzones; ++i) {
        zones_.emplace_back(static_cast<uint64_t>(i) * config_.zone_size,
                            config_.zone_capacity * kSectorSize);
    }
}

uint64_t
ZnsDevice::zone_start(const Zone &z) const
{
    size_t idx = static_cast<size_t>(&z - zones_.data());
    return idx * config_.zone_size;
}

uint64_t
ZnsDevice::zone_cap_end(const Zone &z) const
{
    return zone_start(z) + config_.zone_capacity;
}

ZnsDevice::Zone &
ZnsDevice::zone_at(uint64_t lba)
{
    return zones_[lba / config_.zone_size];
}

Result<ZoneInfo>
ZnsDevice::zone_info(uint32_t zone_index) const
{
    if (zone_index >= config_.nzones)
        return Status(StatusCode::kInvalidArgument, "zone out of range");
    const Zone &z = zones_[zone_index];
    ZoneInfo info;
    info.start = static_cast<uint64_t>(zone_index) * config_.zone_size;
    info.capacity = config_.zone_capacity;
    info.wp = z.wp;
    info.state = z.state;
    return info;
}

void
ZnsDevice::complete(Tick when, IoCallback cb, IoResult result,
                    Apply apply, ZnsTraceEvent tev)
{
    result.submit_tick = loop_->now();
    result.complete_tick = when;
    uint32_t slot = pending_.acquire();
    Pending &p = pending_[slot];
    p.cb = std::move(cb);
    p.apply = std::move(apply);
    p.result = std::move(result);
    p.tev = tev;
    loop_->schedule_at(when, "zns.complete",
                       [this, slot, gen = pending_.gen(slot)] {
                           fire(slot, gen);
                       });
}

void
ZnsDevice::fire(uint32_t slot, uint32_t gen)
{
    // Completions from before a power cut never reach the host, and
    // their durability/state effects never land.
    if (pending_.gen(slot) != gen)
        return;
    Pending p = std::move(pending_[slot]);
    pending_.release(slot);
    if (p.apply)
        p.apply();
    if (trace_) {
        p.tev.dev = this;
        p.tev.tick = loop_->now();
        trace_(p.tev);
    }
    p.cb(std::move(p.result));
}

Status
ZnsDevice::validate_write(const Zone &z, uint64_t slba,
                          uint32_t nsectors) const
{
    switch (z.state) {
      case ZoneState::kFull:
        return Status(StatusCode::kNoSpace, "zone full");
      case ZoneState::kReadOnly:
        return Status(StatusCode::kReadOnly, "zone read-only");
      case ZoneState::kOffline:
        return Status(StatusCode::kOffline, "zone offline");
      default:
        break;
    }
    if (slba != z.wp) {
        return Status(StatusCode::kWritePointerMismatch,
                      strprintf("write at %llu but wp is %llu",
                                (unsigned long long)slba,
                                (unsigned long long)z.wp));
    }
    if (slba + nsectors > zone_cap_end(z))
        return Status(StatusCode::kZoneBoundary, "write crosses capacity");
    return Status::ok();
}

void
ZnsDevice::transition_open(Zone &z, bool explicit_open)
{
    if (is_open(z.state)) {
        if (explicit_open)
            z.state = ZoneState::kExplicitOpen;
        return;
    }
    bool was_active = is_active(z.state);
    z.state =
        explicit_open ? ZoneState::kExplicitOpen : ZoneState::kImplicitOpen;
    open_count_++;
    if (!was_active)
        active_count_++;
}

Status
ZnsDevice::ensure_open_slot(Zone &z)
{
    if (is_open(z.state))
        return Status::ok();
    if (!is_active(z.state) && active_count_ >= config_.max_active_zones) {
        return Status(StatusCode::kTooManyOpenZones,
                      "active zone limit reached");
    }
    if (open_count_ >= config_.max_open_zones) {
        // Auto-close the least recently used implicitly-open zone, as
        // real controllers do to admit a new implicit open.
        Zone *victim = nullptr;
        for (Zone &cand : zones_) {
            if (cand.state != ZoneState::kImplicitOpen)
                continue;
            if (!victim || cand.last_use < victim->last_use)
                victim = &cand;
        }
        if (!victim) {
            return Status(StatusCode::kTooManyOpenZones,
                          "open zone limit reached (all explicit)");
        }
        close_zone(*victim, ZoneState::kClosed);
    }
    return Status::ok();
}

void
ZnsDevice::close_zone(Zone &z, ZoneState target)
{
    assert(is_open(z.state));
    open_count_--;
    z.state = target;
    if (!is_active(target))
        active_count_--;
}

void
ZnsDevice::store_data(Zone &z, uint64_t slba, const IoRequest &req)
{
    if (config_.data_mode != DataMode::kStore)
        return;
    size_t len = static_cast<size_t>(req.nsectors) * kSectorSize;
    assert(req.data.empty() || req.data.size() == len);
    z.data.write((slba - zone_start(z)) * kSectorSize,
                 req.data.empty() ? nullptr : req.data.data(), len);
}

std::vector<uint8_t>
ZnsDevice::load_data(uint64_t slba, uint32_t nsectors) const
{
    std::vector<uint8_t> out;
    if (config_.data_mode != DataMode::kStore)
        return out;
    out.reserve(static_cast<size_t>(nsectors) * kSectorSize);
    uint64_t lba = slba;
    uint32_t left = nsectors;
    while (left > 0) {
        const Zone &z = zones_[lba / config_.zone_size];
        uint64_t off_in_zone = lba % config_.zone_size;
        uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
            left, config_.zone_size - off_in_zone));
        // Sectors beyond capacity read as zeros (as do unwritten ones).
        uint32_t avail = off_in_zone < config_.zone_capacity
            ? static_cast<uint32_t>(std::min<uint64_t>(
                  chunk, config_.zone_capacity - off_in_zone))
            : 0;
        if (avail > 0) {
            z.data.read(off_in_zone * kSectorSize,
                        static_cast<size_t>(avail) * kSectorSize, out);
        }
        out.insert(out.end(),
                   static_cast<size_t>(chunk - avail) * kSectorSize, 0);
        lba += chunk;
        left -= chunk;
    }
    return out;
}

void
ZnsDevice::make_durable_upto(Zone &z, uint64_t lba)
{
    z.durable_wp = std::max(z.durable_wp, std::min(lba, z.wp));
}

std::vector<uint64_t>
ZnsDevice::snapshot_wps() const
{
    std::vector<uint64_t> wps;
    wps.reserve(zones_.size());
    for (const Zone &z : zones_)
        wps.push_back(z.wp);
    return wps;
}

void
ZnsDevice::apply_flush_snapshot(const std::vector<uint64_t> &wps)
{
    // Persist everything submitted before the flush; clamp to the
    // current wp (a zone reset may have intervened).
    for (size_t i = 0; i < zones_.size(); ++i)
        make_durable_upto(zones_[i], wps[i]);
}

void
ZnsDevice::do_reset(Zone &z)
{
    if (is_open(z.state))
        close_zone(z, ZoneState::kClosed);
    if (is_active(z.state))
        active_count_--;
    z.state = ZoneState::kEmpty;
    z.wp = zone_start(z);
    z.durable_wp = z.wp;
    z.data.clear();
}

uint64_t
ZnsDevice::resident_bytes() const
{
    uint64_t total = 0;
    for (const Zone &z : zones_)
        total += z.data.resident_bytes();
    return total;
}

void
ZnsDevice::submit(IoRequest req, IoCallback cb)
{
    assert(cb);
    ZnsTraceEvent tev;
    tev.op = req.op;
    tev.slba = req.slba;
    tev.lba = req.slba;
    tev.nsectors = req.nsectors;
    tev.fua = req.fua;
    tev.preflush = req.preflush;
    if (failed_) {
        stats_.errors++;
        IoResult r;
        r.status = Status(StatusCode::kOffline, "device failed");
        complete(loop_->now() + kNsPerUs, std::move(cb), std::move(r),
                 nullptr, tev);
        return;
    }

    IoResult result;
    Tick when = loop_->now();
    Apply apply;

    // PREFLUSH: persist the whole cache before the command proper.
    // The durability lands at completion (a crash in between loses it).
    if (req.preflush && req.op != IoOp::kFlush) {
        auto snapshot = snapshot_wps();
        apply = [this, snapshot] { apply_flush_snapshot(snapshot); };
        when = std::max(when, timing_->flush_done());
    }

    switch (req.op) {
      case IoOp::kRead: {
        if (req.slba + req.nsectors > geom_.nsectors || req.nsectors == 0) {
            result.status =
                Status(StatusCode::kInvalidArgument, "read out of range");
            break;
        }
        stats_.reads++;
        stats_.sectors_read += req.nsectors;
        result.lba = req.slba;
        result.data = load_data(req.slba, req.nsectors);
        when = std::max(when, timing_->read_done(req.nsectors));
        break;
      }
      case IoOp::kWrite:
      case IoOp::kAppend: {
        if (req.nsectors == 0 ||
            req.slba + req.nsectors > geom_.nsectors) {
            result.status =
                Status(StatusCode::kInvalidArgument, "write out of range");
            break;
        }
        // Payload must be sector-aligned and agree with nsectors
        // (empty payloads are timing-only writes and always legal).
        if (!req.data.empty() &&
            (req.data.size() % kSectorSize != 0 ||
             req.data.size() / kSectorSize != req.nsectors)) {
            result.status = Status(StatusCode::kInvalidArgument,
                                   "payload size disagrees with nsectors");
            break;
        }
        Zone &z = zone_at(req.slba);
        uint64_t slba = req.slba;
        if (req.op == IoOp::kAppend) {
            if (req.slba != zone_start(z)) {
                result.status = Status(StatusCode::kInvalidArgument,
                                       "append slba must be zone start");
                break;
            }
            if (req.nsectors > config_.max_append_sectors) {
                result.status = Status(StatusCode::kInvalidArgument,
                                       "append exceeds limit");
                break;
            }
            slba = z.wp;
        }
        Status st = validate_write(z, slba, req.nsectors);
        if (!st) {
            result.status = st;
            break;
        }
        st = ensure_open_slot(z);
        if (!st) {
            result.status = st;
            break;
        }
        transition_open(z, false);
        z.last_use = ++use_clock_;
        store_data(z, slba, req);
        z.wp = slba + req.nsectors;
        if (z.wp == zone_cap_end(z))
            close_zone(z, ZoneState::kFull);
        stats_.writes += (req.op == IoOp::kWrite);
        stats_.appends += (req.op == IoOp::kAppend);
        stats_.sectors_written += req.nsectors;
        result.lba = slba;
        when = std::max(when, timing_->write_done(req.nsectors));
        if (req.fua) {
            // FUA write becomes durable at completion; NAND programs in
            // zone order, so the zone prefix is durable too.
            uint64_t upto = slba + req.nsectors;
            Zone *zp = &z;
            Apply prev = std::move(apply);
            apply = [this, zp, upto, prev = std::move(prev)] {
                if (prev)
                    prev();
                make_durable_upto(*zp, upto);
            };
        }
        break;
      }
      case IoOp::kFlush: {
        stats_.flushes++;
        auto snapshot = snapshot_wps();
        apply = [this, snapshot] { apply_flush_snapshot(snapshot); };
        when = std::max(when, timing_->flush_done());
        break;
      }
      case IoOp::kZoneReset: {
        Zone &z = zone_at(req.slba);
        if (req.slba != zone_start(z)) {
            result.status = Status(StatusCode::kInvalidArgument,
                                   "reset slba must be zone start");
            break;
        }
        if (z.state == ZoneState::kOffline ||
            z.state == ZoneState::kReadOnly) {
            result.status = Status(StatusCode::kOffline, "zone dead");
            break;
        }
        stats_.zone_resets++;
        {
            Zone *zp = &z;
            apply = [this, zp] { do_reset(*zp); };
        }
        when = std::max(when, timing_->reset_done());
        break;
      }
      case IoOp::kZoneFinish: {
        Zone &z = zone_at(req.slba);
        if (req.slba != zone_start(z)) {
            result.status = Status(StatusCode::kInvalidArgument,
                                   "finish slba must be zone start");
            break;
        }
        if (z.state == ZoneState::kFull)
            break; // idempotent
        {
            Zone *zp = &z;
            apply = [this, zp] {
                if (zp->state == ZoneState::kFull)
                    return;
                if (is_open(zp->state))
                    close_zone(*zp, ZoneState::kClosed);
                if (is_active(zp->state))
                    active_count_--;
                zp->state = ZoneState::kFull;
                zp->wp = zone_cap_end(*zp);
                zp->durable_wp = zp->wp; // durable once completed
            };
        }
        when = std::max(when, timing_->finish_done());
        break;
      }
      case IoOp::kZoneOpen: {
        Zone &z = zone_at(req.slba);
        Status st = ensure_open_slot(z);
        if (!st) {
            result.status = st;
            break;
        }
        if (z.state == ZoneState::kFull) {
            result.status = Status(StatusCode::kNoSpace, "zone full");
            break;
        }
        transition_open(z, true);
        z.last_use = ++use_clock_;
        when += kNsPerUs;
        break;
      }
      case IoOp::kZoneClose: {
        Zone &z = zone_at(req.slba);
        if (is_open(z.state))
            close_zone(z, ZoneState::kClosed);
        when += kNsPerUs;
        break;
      }
    }

    if (!result.status.is_ok()) {
        stats_.errors++;
        apply = nullptr; // failed commands have no effects
    } else if (ledger_ != nullptr) {
        ledger_->record(ledger_dev_, req.op, req.cause, req.slba,
                        req.nsectors);
    }
    tev.lba = result.lba;
    tev.ok = result.status.is_ok();
    complete(std::max(when, loop_->now() + 1), std::move(cb),
             std::move(result), std::move(apply), tev);
}

void
ZnsDevice::power_cut(const PowerLossSpec &spec)
{
    pending_.release_all();
    Rng rng(spec.seed ^ 0xdeadbeef);
    for (Zone &z : zones_) {
        if (z.state == ZoneState::kReadOnly ||
            z.state == ZoneState::kOffline) {
            continue;
        }
        uint64_t survive = z.durable_wp;
        switch (spec.policy) {
          case PowerLossSpec::Policy::kDropCache:
            survive = z.durable_wp;
            break;
          case PowerLossSpec::Policy::kKeepAll:
            survive = z.wp;
            break;
          case PowerLossSpec::Policy::kRandom: {
            uint64_t cached = z.wp - z.durable_wp;
            if (cached > 0) {
                // Survive a prefix of the cache, at atomic granularity.
                uint64_t atoms =
                    cached / config_.atomic_write_sectors + 1;
                uint64_t keep = rng.next_below(atoms + 1) *
                    config_.atomic_write_sectors;
                survive = std::min(z.wp, z.durable_wp + keep);
            }
            break;
          }
        }
        // Roll the zone back to the surviving write pointer.
        z.data.zero((survive - zone_start(z)) * kSectorSize,
                    (zone_cap_end(z) - survive) * kSectorSize);
        z.wp = survive;
        z.durable_wp = survive;
        // Post-boot states: open zones become closed (no opens survive).
        if (is_open(z.state))
            close_zone(z, ZoneState::kClosed);
        if (z.state == ZoneState::kClosed && z.wp == zone_start(z)) {
            z.state = ZoneState::kEmpty;
            active_count_--;
        }
        if (z.state == ZoneState::kFull && z.wp < zone_cap_end(z)) {
            // A finish or final write did not persist.
            z.state = z.wp == zone_start(z) ? ZoneState::kEmpty
                                            : ZoneState::kClosed;
            if (z.state == ZoneState::kClosed)
                active_count_++;
        }
    }
}

void
ZnsDevice::reattach(EventLoop *loop)
{
    loop_ = loop;
    timing_ = std::make_unique<TimingModel>(*loop_, config_.timing);
    timing_->set_busy_accumulator(&stats_.busy_ns);
}

void
ZnsDevice::corrupt(uint64_t lba, uint32_t nsectors, uint64_t seed)
{
    if (config_.data_mode != DataMode::kStore)
        return;
    Rng rng(seed ^ 0xc0441u);
    for (uint32_t i = 0; i < nsectors; ++i) {
        uint64_t cur = lba + i;
        if (cur >= geom_.nsectors)
            return;
        Zone &z = zone_at(cur);
        uint64_t off_in_zone = cur - zone_start(z);
        if (off_in_zone >= config_.zone_capacity)
            continue;
        uint8_t *p = z.data.find(off_in_zone * kSectorSize);
        if (p == nullptr)
            continue;
        for (size_t b = 0; b < kSectorSize; b += 64)
            p[b] ^= static_cast<uint8_t>(rng.next() | 1);
    }
}

ZnsDevice::ZoneCensus
ZnsDevice::zone_census() const
{
    ZoneCensus c;
    for (const Zone &z : zones_) {
        switch (z.state) {
          case ZoneState::kEmpty: c.empty++; break;
          case ZoneState::kImplicitOpen:
          case ZoneState::kExplicitOpen: c.open++; break;
          case ZoneState::kClosed: c.closed++; break;
          case ZoneState::kFull: c.full++; break;
          default: c.other++; break;
        }
    }
    return c;
}

void
ZnsDevice::replace()
{
    failed_ = false;
    pending_.release_all();
    open_count_ = 0;
    active_count_ = 0;
    for (uint32_t i = 0; i < config_.nzones; ++i) {
        Zone &z = zones_[i];
        z.state = ZoneState::kEmpty;
        z.wp = static_cast<uint64_t>(i) * config_.zone_size;
        z.durable_wp = z.wp;
        z.data.clear();
        z.last_use = 0;
    }
    stats_ = DeviceStats{};
    // Counters restarted from zero on a factory-fresh device: move the
    // ledger's audit baseline along or every delta check would trip.
    if (ledger_ != nullptr)
        ledger_->rebind_device(ledger_dev_, this);
}

} // namespace raizn
