/**
 * @file
 * ZonedEngine data path: geometry/placement, the per-(member, zone)
 * submit chains, flush barriers, the zone records of the metadata log,
 * and the read/write/reset/finish implementations. Mount/rebuild/scrub
 * live in engine_recover.cc.
 */
#include "array/engine.h"

#include <algorithm>
#include <cstring>

#include "array/gf256.h"
#include "array/stripe_gather.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

uint64_t
bit(uint32_t dev)
{
    return 1ull << dev;
}

uint64_t
chain_key(uint32_t dev, uint32_t zone)
{
    return (static_cast<uint64_t>(dev) << 32) | zone;
}

} // namespace

struct ZonedEngine::WriteCtx {
    uint32_t pending = 0;
    bool issued_all = false;
    Status status;
    WriteFlags flags;
    uint32_t nsectors = 0; ///< logical length (acked-user-byte ledger)
    IoCallback cb;
    Tick t0 = 0;
    uint64_t req_id = 0;      ///< trace request id (0 = untraced)
    uint64_t total_token = 0; ///< open "eng.write" span token
};

struct ZonedEngine::FlushBarrier {
    std::set<uint64_t> waiting;
    IoCallback cb;
};

// ---------------------------------------------------------------------
// Construction / geometry
// ---------------------------------------------------------------------

Status
ZonedEngine::validate(const std::vector<BlockDevice *> &devs,
                      const EngineConfig &cfg)
{
    if (cfg.mode == RaidMode::kRaizn || cfg.mode == RaidMode::kMdraid)
        return Status(StatusCode::kInvalidArgument,
                      "use the dedicated implementation for this mode");
    if (devs.size() < 2 || devs.size() > 64)
        return Status(StatusCode::kInvalidArgument,
                      "engine needs 2..64 members");
    const uint32_t n = static_cast<uint32_t>(devs.size());
    uint32_t min_devs = 2;
    switch (cfg.mode) {
    case RaidMode::kRaid5:
    case RaidMode::kAuto:
        min_devs = 3;
        break;
    case RaidMode::kRaid6:
    case RaidMode::kRaid10:
        min_devs = 4;
        break;
    default:
        break;
    }
    if (n < min_devs)
        return Status(StatusCode::kInvalidArgument,
                      strprintf("%s needs at least %u members",
                                std::string(to_string(cfg.mode)).c_str(),
                                min_devs));
    if (cfg.mode == RaidMode::kRaid10 && n % 2 != 0)
        return Status(StatusCode::kInvalidArgument,
                      "raid10 needs an even member count");
    if (cfg.su_sectors == 0)
        return Status(StatusCode::kInvalidArgument, "su_sectors == 0");
    const DeviceGeometry &g0 = devs[0]->geometry();
    for (BlockDevice *d : devs) {
        const DeviceGeometry &g = d->geometry();
        if (!g.zoned)
            return Status(StatusCode::kInvalidArgument,
                          "engine members must be zoned devices");
        if (g.zone_size != g0.zone_size ||
            g.zone_capacity != g0.zone_capacity || g.nzones != g0.nzones)
            return Status(StatusCode::kInvalidArgument,
                          "engine members must share one geometry");
        if (d->data_mode() != devs[0]->data_mode())
            return Status(StatusCode::kInvalidArgument,
                          "engine members must share one data mode");
    }
    if (g0.nzones <= kMdZonesPerDevice)
        return Status(StatusCode::kInvalidArgument,
                      "no data zone beyond the metadata zones");
    // A metadata GC checkpoint holds one record per zone after the
    // role record, within one metadata zone.
    if (g0.nzones - kMdZonesPerDevice >= g0.zone_capacity)
        return Status(StatusCode::kInvalidArgument,
                      "zone snapshot exceeds one metadata zone");
    if (g0.zone_capacity < cfg.su_sectors)
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity below one stripe unit");
    return Status::ok();
}

ZonedEngine::Geometry
ZonedEngine::geometry(const EngineConfig &cfg, uint32_t ndev,
                      const DeviceGeometry &g)
{
    const uint64_t su = cfg.su_sectors;
    const uint64_t z = g.zone_capacity;
    uint64_t units = 0;
    switch (cfg.mode) {
    case RaidMode::kRaid0:
        units = ndev;
        break;
    case RaidMode::kRaid1:
        units = 1;
        break;
    case RaidMode::kRaid5:
    case RaidMode::kAuto:
        units = ndev - 1;
        break;
    case RaidMode::kRaid6:
        units = ndev - 2;
        break;
    case RaidMode::kRaid10:
        units = ndev / 2;
        break;
    default:
        return {};
    }
    Geometry out;
    out.nzones = g.nzones - kMdZonesPerDevice;
    out.stripe_sectors = su * units;
    if (cfg.mode == RaidMode::kRaid1)
        out.zone_cap = z;
    else if (cfg.mode == RaidMode::kAuto)
        // Mirrored zones store C sectors per member (C <= Z), parity
        // zones C / (n-1): one capacity must fit both layouts.
        out.zone_cap = z / out.stripe_sectors * out.stripe_sectors;
    else
        out.zone_cap = z / su * out.stripe_sectors;
    return out;
}

ZonedEngine::ZonedEngine(EventLoop *loop, std::vector<BlockDevice *> devs,
                         const EngineConfig &cfg)
    : ZonedArray(loop, std::move(devs),
                 StatCells{&stats_.io_retries, &stats_.io_timeouts,
                           &stats_.dev_errors, &stats_.spares_promoted,
                           &stats_.auto_failovers,
                           &stats_.rebuild_throttle_stalls,
                           &stats_.scrubbed_stripes,
                           &stats_.crc_mismatches}),
      cfg_(cfg)
{
    const DeviceGeometry &g = devs_[0]->geometry();
    const Geometry geo = geometry(cfg_, num_devices(), g);
    nzones_ = geo.nzones;
    zone_cap_ = geo.zone_cap;
    phys_cap_ = g.zone_capacity;
    store_data_ = devs_[0]->data_mode() == DataMode::kStore;
    md_ = std::make_unique<MdManager>(
        loop_, MdZoneRange::trailing(g, kMdZonesPerDevice), devs_);
    md_->set_retrier(retrier_.get());
    md_->set_snapshot_provider([this](uint32_t, MdZoneRole role) {
        return role == MdZoneRole::kGeneral ? snapshot_records()
                                            : std::vector<MdAppend>{};
    });
    zones_.resize(nzones_);
    for (EZone &ez : zones_) {
        ez.crc = CrcCatalog(zone_cap_);
        ez.kind = fixed_kind();
        ez.kind_decided = cfg_.mode != RaidMode::kAuto;
    }
}

ZonedEngine::~ZonedEngine() = default;

Result<std::unique_ptr<ZonedEngine>>
ZonedEngine::create(EventLoop *loop, std::vector<BlockDevice *> devs,
                    const EngineConfig &cfg)
{
    Status s = validate(devs, cfg);
    if (!s.is_ok())
        return s;
    std::unique_ptr<ZonedEngine> e(
        new ZonedEngine(loop, std::move(devs), cfg));
    if (e->zone_cap_ == 0)
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity too small for this mode");
    s = e->md_->format();
    if (!s.is_ok())
        return s;
    return e;
}

Result<std::unique_ptr<ZonedEngine>>
ZonedEngine::mount(EventLoop *loop, std::vector<BlockDevice *> devs,
                   const EngineConfig &cfg)
{
    Status s = validate(devs, cfg);
    if (!s.is_ok())
        return s;
    if (devs[0]->data_mode() != DataMode::kStore)
        return Status(StatusCode::kNotSupported,
                      "mount requires data-storing members");
    std::unique_ptr<ZonedEngine> e(
        new ZonedEngine(loop, std::move(devs), cfg));
    if (e->zone_cap_ == 0)
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity too small for this mode");
    s = e->run_mount();
    if (!s.is_ok())
        return s;
    return e;
}

ZonedEngine::ZoneKind
ZonedEngine::fixed_kind() const
{
    switch (cfg_.mode) {
    case RaidMode::kRaid0:
        return ZoneKind::kStripe0;
    case RaidMode::kRaid1:
        return ZoneKind::kMirror;
    case RaidMode::kRaid6:
        return ZoneKind::kDualParity;
    case RaidMode::kRaid10:
        return ZoneKind::kMirrorPairs;
    default:
        return ZoneKind::kParity; // raid5; auto placeholder until decided
    }
}

uint32_t
ZonedEngine::units_of(ZoneKind k) const
{
    const uint32_t n = num_devices();
    switch (k) {
    case ZoneKind::kStripe0:
        return n;
    case ZoneKind::kMirror:
        return 1;
    case ZoneKind::kMirrorPairs:
        return n / 2;
    case ZoneKind::kParity:
        return n - 1;
    case ZoneKind::kDualParity:
        return n - 2;
    }
    return 1;
}

uint64_t
ZonedEngine::dev_row_lba(uint32_t zone, uint64_t row) const
{
    return static_cast<uint64_t>(zone) * devs_[0]->geometry().zone_size +
           row;
}

bool
ZonedEngine::dev_down_for_zone(uint32_t dev, uint32_t zone) const
{
    return !member_up(dev) || (zones_[zone].participants & bit(dev)) == 0;
}

Result<ZoneInfo>
ZonedEngine::zone_info(uint32_t zone) const
{
    if (zone >= nzones_)
        return Status(StatusCode::kInvalidArgument, "zone out of range");
    const EZone &z = zones_[zone];
    ZoneInfo zi;
    zi.start = static_cast<uint64_t>(zone) * zone_cap_;
    zi.capacity = zone_cap_;
    zi.wp = zi.start + z.fill;
    zi.state = z.finished ? ZoneState::kFull
        : z.fill > 0      ? ZoneState::kImplicitOpen
                          : ZoneState::kEmpty;
    return zi;
}

// ---- Introspection --------------------------------------------------

ZonedEngine::ZoneKind
ZonedEngine::zone_kind(uint32_t zone) const
{
    return zones_[zone].kind;
}

bool
ZonedEngine::zone_kind_decided(uint32_t zone) const
{
    return zones_[zone].kind_decided;
}

uint64_t
ZonedEngine::zone_gen(uint32_t zone) const
{
    return zones_[zone].gen;
}

bool
ZonedEngine::zone_frozen(uint32_t zone) const
{
    return zones_[zone].frozen;
}

bool
ZonedEngine::zone_finished(uint32_t zone) const
{
    return zones_[zone].finished;
}

uint32_t
ZonedEngine::data_units(uint32_t zone) const
{
    return units_of(zones_[zone].kind);
}

uint32_t
ZonedEngine::chunk_dev(uint32_t zone, uint64_t stripe, uint32_t u) const
{
    const uint32_t n = num_devices();
    switch (zones_[zone].kind) {
    case ZoneKind::kStripe0:
        return u;
    case ZoneKind::kMirror:
        return 0;
    case ZoneKind::kMirrorPairs:
        return 2 * u;
    case ZoneKind::kParity: {
        uint32_t p = (n - 1 - ((zone + stripe) % n)) % n;
        return (p + 1 + u) % n;
    }
    case ZoneKind::kDualParity: {
        uint32_t p = (n - 1 - ((zone + stripe) % n)) % n;
        uint32_t q = (p + 1) % n;
        return (q + 1 + u) % n;
    }
    }
    return 0;
}

int
ZonedEngine::parity_dev(uint32_t zone, uint64_t stripe) const
{
    const uint32_t n = num_devices();
    ZoneKind k = zones_[zone].kind;
    if (k != ZoneKind::kParity && k != ZoneKind::kDualParity)
        return -1;
    return static_cast<int>((n - 1 - ((zone + stripe) % n)) % n);
}

int
ZonedEngine::q_dev(uint32_t zone, uint64_t stripe) const
{
    if (zones_[zone].kind != ZoneKind::kDualParity)
        return -1;
    const uint32_t n = num_devices();
    uint32_t p = (n - 1 - ((zone + stripe) % n)) % n;
    return static_cast<int>((p + 1) % n);
}

std::vector<uint32_t>
ZonedEngine::unit_devs(uint32_t zone, uint64_t stripe, uint32_t u) const
{
    switch (zones_[zone].kind) {
    case ZoneKind::kMirror: {
        std::vector<uint32_t> all(num_devices());
        for (uint32_t d = 0; d < num_devices(); ++d)
            all[d] = d;
        return all;
    }
    case ZoneKind::kMirrorPairs:
        return {2 * u, 2 * u + 1};
    default:
        return {chunk_dev(zone, stripe, u)};
    }
}

uint64_t
ZonedEngine::degraded_fill(uint32_t zone, uint32_t down) const
{
    const EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    switch (z.kind) {
    case ZoneKind::kMirror: {
        uint64_t best = 0;
        for (uint32_t d = 0; d < num_devices(); ++d) {
            if (d == down || dev_down_for_zone(d, zone))
                continue;
            uint64_t f = z.rec_fill.empty()
                ? z.fill
                : std::min<uint64_t>(z.rec_fill[d], zone_cap_);
            best = std::max(best, f);
        }
        return std::min(best, z.finished ? zone_cap_ : z.fill);
    }
    case ZoneKind::kMirrorPairs: {
        uint64_t limit = z.finished ? zone_cap_ : z.fill;
        for (uint64_t off = 0; off < limit; ++off) {
            uint64_t stripe = off / (su * static_cast<uint64_t>(units));
            uint32_t u = (off % (su * units)) / su;
            uint64_t row = stripe * su + off % su;
            bool avail = false;
            for (uint32_t d : {2 * u, 2 * u + 1}) {
                if (d == down || dev_down_for_zone(d, zone))
                    continue;
                if (!z.rec_fill.empty() && z.rec_fill[d] <= row)
                    continue;
                avail = true;
            }
            if (!avail)
                return off;
        }
        return limit;
    }
    case ZoneKind::kStripe0: {
        uint64_t limit = z.finished ? zone_cap_ : z.fill;
        if (down < units)
            return std::min<uint64_t>(limit, down * su);
        return limit;
    }
    default:
        // Parity kinds reconstruct at runtime; post-crash the frozen
        // prefix stops at the first sector mapped to the lost member
        // (tail parity is volatile — see DESIGN.md).
        if (!z.frozen)
            return z.finished ? zone_cap_ : z.fill;
        uint64_t limit = z.finished ? zone_cap_ : z.fill;
        for (uint64_t off = 0; off < limit; ++off) {
            uint64_t stripe = off / (su * static_cast<uint64_t>(units));
            uint32_t u = (off % (su * units)) / su;
            if (chunk_dev(zone, stripe, u) == down)
                return off;
        }
        return limit;
    }
}

// ---------------------------------------------------------------------
// Submit plumbing
// ---------------------------------------------------------------------

void
ZonedEngine::chain_submit(uint32_t dev, uint32_t zone, IoRequest req,
                          IoCallback cb)
{
    // The dev_submit span only opens once the chain dispatches the IO,
    // so a traced request would lose its chain-queue wait. Wrap traced
    // chunks in a request-track span covering enqueue -> completion;
    // request_coverage unions overlapping intervals, so the double
    // accounting with the device span is harmless.
    if (trace_ != nullptr && req.trace_req != 0) {
        uint64_t token = trace_->begin_span(
            "eng.chunk_chain", req.trace_req, obs::kTrackRequest,
            loop_->now());
        cb = [this, token, inner = std::move(cb)](IoResult r) {
            if (token != 0)
                trace_->end_span(token, loop_->now());
            inner(std::move(r));
        };
    }
    chains_[chain_key(dev, zone)].q.emplace_back(std::move(req),
                                                std::move(cb));
    chain_advance(dev, zone);
}

void
ZonedEngine::gather_submit(uint32_t dev, uint32_t zone, IoRequest req,
                           IoCallback cb)
{
    chain_submit(dev, zone, std::move(req), std::move(cb));
}

void
ZonedEngine::chain_advance(uint32_t dev, uint32_t zone)
{
    Chain &c = chains_[chain_key(dev, zone)];
    if (c.busy || c.q.empty())
        return;
    c.busy = true;
    auto item = std::move(c.q.front());
    c.q.pop_front();
    dev_submit(dev, std::move(item.first),
               [this, dev, zone, alive = alive_,
                cb = std::move(item.second)](IoResult r) {
                   cb(std::move(r));
                   if (!*alive)
                       return;
                   chains_[chain_key(dev, zone)].busy = false;
                   chain_advance(dev, zone);
               });
}

void
ZonedEngine::zone_enqueue(uint32_t zone,
                          std::function<void(std::function<void()>)> step)
{
    zones_[zone].wq.push_back(std::move(step));
    zone_advance(zone);
}

void
ZonedEngine::zone_advance(uint32_t zone)
{
    EZone &z = zones_[zone];
    if (z.wq_busy || z.wq.empty())
        return;
    z.wq_busy = true;
    auto step = std::move(z.wq.front());
    z.wq.pop_front();
    step([this, zone, alive = alive_] {
        if (!*alive)
            return;
        zones_[zone].wq_busy = false;
        zone_advance(zone);
    });
}

uint64_t
ZonedEngine::track_io()
{
    uint64_t id = next_io_id_++;
    inflight_ios_.insert(id);
    return id;
}

void
ZonedEngine::untrack_io(uint64_t id)
{
    inflight_ios_.erase(id);
    for (size_t i = 0; i < barriers_.size();) {
        barriers_[i]->waiting.erase(id);
        if (barriers_[i]->waiting.empty()) {
            std::shared_ptr<FlushBarrier> ready = barriers_[i];
            barriers_.erase(barriers_.begin() + i);
            issue_barrier_devices(std::move(ready));
        } else {
            ++i;
        }
    }
}

void
ZonedEngine::barrier_flush(IoCallback cb)
{
    auto b = std::make_shared<FlushBarrier>();
    b->waiting = inflight_ios_;
    b->cb = std::move(cb);
    if (b->waiting.empty()) {
        issue_barrier_devices(std::move(b));
        return;
    }
    barriers_.push_back(std::move(b));
}

void
ZonedEngine::issue_barrier_devices(std::shared_ptr<FlushBarrier> b)
{
    IoRequest req = IoRequest::flush();
    req.trace_stage = "eng.flush";
    req.cause = obs::Cause::kUserData;
    fan_out(req, std::move(b->cb));
}

// ---------------------------------------------------------------------
// Metadata log
// ---------------------------------------------------------------------

MdAppend
ZonedEngine::encode_zone_record(const ZoneRecord &rec)
{
    MdAppend app;
    app.header.type = MdType::kEngineZone;
    app.header.generation = rec.gen;
    app.inline_data.resize(28);
    uint8_t *p = app.inline_data.data();
    const uint32_t pending = rec.reset_pending ? 1 : 0;
    std::memcpy(p, &rec.op, 4);
    std::memcpy(p + 4, &rec.zone, 4);
    std::memcpy(p + 8, &rec.participants, 8);
    std::memcpy(p + 16, &rec.kind, 4);
    std::memcpy(p + 20, &pending, 4);
    return app;
}

bool
ZonedEngine::decode_zone_record(const MdEntry &e, ZoneRecord *out)
{
    if (e.header.type != MdType::kEngineZone || e.inline_data.size() < 28)
        return false;
    const uint8_t *p = e.inline_data.data();
    uint32_t pending = 0;
    std::memcpy(&out->op, p, 4);
    std::memcpy(&out->zone, p + 4, 4);
    std::memcpy(&out->participants, p + 8, 8);
    std::memcpy(&out->kind, p + 16, 4);
    std::memcpy(&pending, p + 20, 4);
    out->gen = e.header.generation;
    out->reset_pending = pending != 0;
    return true;
}

void
ZonedEngine::log_to(uint32_t dev, MdAppend rec, MemberJoin &join)
{
    md_->append(dev, MdZoneRole::kGeneral, std::move(rec),
                /*durable=*/true, [cb = join.member(dev)](Status s) {
                    IoResult r;
                    r.status = std::move(s);
                    cb(std::move(r));
                });
}

void
ZonedEngine::log_zone(const ZoneRecord &rec, StatusCb cb)
{
    PROF_SCOPE("eng.md.append");
    MemberJoin join(this, [this, cb = std::move(cb)](IoResult r) {
        if (r.status.is_ok())
            ++stats_.wal_appends;
        cb(r.status);
    });
    // The rebuild target too: rebuild_prepare gave it a formatted log.
    for (uint32_t d = 0; d < num_devices(); ++d)
        if (member_up(d))
            log_to(d, encode_zone_record(rec), join);
    join.seal();
}

std::vector<MdAppend>
ZonedEngine::snapshot_records() const
{
    std::vector<MdAppend> out;
    for (uint32_t zone = 0; zone < nzones_; ++zone) {
        const EZone &z = zones_[zone];
        const bool kind = cfg_.mode == RaidMode::kAuto && z.kind_decided;
        // Replay assumes the formatted state without a record.
        if (z.gen == 0 && z.participants == ~0ull && !kind && !z.resetting)
            continue;
        ZoneRecord rec;
        rec.op = ZoneRecord::kSnapshot;
        rec.zone = zone;
        rec.gen = z.gen;
        rec.participants = z.participants;
        if (kind)
            rec.kind = static_cast<uint32_t>(z.kind);
        rec.reset_pending = z.resetting;
        out.push_back(encode_zone_record(rec));
    }
    return out;
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

void
ZonedEngine::submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                          WriteFlags flags, IoCallback cb)
{
    PROF_SCOPE("eng.write");
    ++stats_.logical_writes;
    stats_.sectors_written += nsectors;
    if (flags.fua)
        ++stats_.fua_writes;
    auto fail = [this, &cb](StatusCode code, const char *msg) {
        loop_->schedule_after(1, [cb = std::move(cb), code, msg] {
            IoResult r;
            r.status = Status(code, msg);
            cb(std::move(r));
        });
    };
    if (nsectors == 0 || lba + nsectors > capacity()) {
        fail(StatusCode::kInvalidArgument, "write out of range");
        return;
    }
    const uint32_t zone = static_cast<uint32_t>(lba / zone_cap_);
    const uint64_t off = lba % zone_cap_;
    if (off + nsectors > zone_cap_) {
        fail(StatusCode::kZoneBoundary, "write crosses a zone boundary");
        return;
    }
    EZone &z = zones_[zone];
    if (z.frozen) {
        fail(StatusCode::kReadOnly,
             "recovered zone is read-only until reset");
        return;
    }
    if (z.resetting) {
        fail(StatusCode::kBusy, "zone reset in progress");
        return;
    }
    if (z.finished || z.finish_pending) {
        fail(StatusCode::kNoSpace, "zone is finished");
        return;
    }
    if (off != z.fill) {
        fail(StatusCode::kWritePointerMismatch,
             "write not at the zone write pointer");
        return;
    }
    if (refuse_write(cb))
        return;
    z.fill += nsectors;

    auto ctx = std::make_shared<WriteCtx>();
    ctx->flags = flags;
    ctx->nsectors = nsectors;
    ctx->cb = std::move(cb);
    ctx->t0 = loop_->now();
    if (trace_ != nullptr)
        ctx->req_id = trace_->next_request_id();
    zone_enqueue(zone, [this, zone, off, data = std::move(data), nsectors,
                        flags, ctx](std::function<void()> done) {
        auto proceed = [this, zone, off, data, nsectors, ctx, done] {
            decide_zone_kind(zone, [this, zone, off, data, nsectors, ctx,
                                    done](Status s) {
                if (!s.is_ok()) {
                    ctx->status = s;
                    ctx->issued_all = true;
                    if (ctx->pending == 0)
                        finish_write(ctx);
                    done();
                    return;
                }
                issue_write(zone, off, data, nsectors, ctx);
                done();
            });
        };
        if (flags.preflush) {
            barrier_flush([this, ctx, proceed, done](IoResult r) {
                if (!r.status.is_ok()) {
                    ctx->status = r.status;
                    ctx->issued_all = true;
                    if (ctx->pending == 0)
                        finish_write(ctx);
                    done();
                    return;
                }
                proceed();
            });
        } else {
            proceed();
        }
    });
}

void
ZonedEngine::decide_zone_kind(uint32_t zone,
                              std::function<void(Status)> cb)
{
    EZone &z = zones_[zone];
    if (z.kind_decided) {
        cb(Status::ok());
        return;
    }
    // Auto mode: hot zones (frequently reset) get mirrored, cold zones
    // get parity. The decision is journaled FUA before any data of the
    // generation hits media so mount can interpret the zone.
    ZoneKind k = z.gen >= cfg_.auto_hot_resets ? ZoneKind::kMirror
                                               : ZoneKind::kParity;
    z.kind = k;
    if (k == ZoneKind::kMirror)
        ++stats_.auto_mirror_zones;
    else
        ++stats_.auto_parity_zones;
    ZoneRecord rec;
    rec.op = ZoneRecord::kKind;
    rec.zone = zone;
    rec.gen = z.gen;
    rec.kind = static_cast<uint32_t>(k);
    log_zone(rec, [this, zone, cb = std::move(cb)](Status s) {
        if (s.is_ok())
            zones_[zone].kind_decided = true;
        cb(s);
    });
}

void
ZonedEngine::issue_write(uint32_t zone, uint64_t off, const IoBuf &data,
                         uint32_t nsectors, std::shared_ptr<WriteCtx> ctx)
{
    // The total-write span opens here — after the per-zone queue wait
    // and the zone-kind decision — so its window is the issue-to-ack
    // path the chunk sub-spans can actually account for.
    if (trace_ != nullptr) {
        ctx->total_token = trace_->begin_span(
            "eng.write", ctx->req_id, obs::kTrackRequest, loop_->now());
    }
    EZone &z = zones_[zone];
    const bool store = store_data_ && !data.empty();
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    auto submit_piece = [this, zone, ctx](uint32_t d, uint64_t row,
                                          IoBuf payload,
                                          uint32_t len) {
        IoRequest req = payload.empty()
            ? IoRequest::write_len(dev_row_lba(zone, row), len)
            : IoRequest::write(dev_row_lba(zone, row), std::move(payload));
        req.trace_stage = "eng.chunk_write";
        req.cause = ctx->flags.origin;
        req.trace_req = ctx->req_id;
        uint64_t id = track_io();
        ++ctx->pending;
        chain_submit(d, zone, std::move(req),
                     [this, ctx, d, id](IoResult r) {
                         untrack_io(id);
                         chunk_done(ctx, d, r.status);
                     });
    };

    if (z.kind == ZoneKind::kMirror) {
        bool any = false;
        for (uint32_t d = 0; d < num_devices(); ++d) {
            if (dev_down_for_zone(d, zone))
                continue;
            any = true;
            submit_piece(d, off, store ? data : IoBuf{}, nsectors);
        }
        if (!any && ctx->status.is_ok())
            ctx->status =
                Status(StatusCode::kOffline, "no live mirror members");
    } else {
        uint64_t pos = off;
        size_t db = 0; // sectors consumed from `data`
        while (pos < off + nsectors) {
            const uint64_t stripe_sect = su * static_cast<uint64_t>(units);
            uint64_t stripe = pos / stripe_sect;
            uint64_t in_stripe = pos % stripe_sect;
            uint32_t u = static_cast<uint32_t>(in_stripe / su);
            uint64_t o = in_stripe % su;
            uint32_t len = static_cast<uint32_t>(
                std::min<uint64_t>(su - o, off + nsectors - pos));
            uint64_t row = stripe * su + o;
            if (z.kind == ZoneKind::kParity ||
                z.kind == ZoneKind::kDualParity)
                note_tail(zone, pos, len,
                          store ? data.data() + db * kSectorSize
                                : nullptr);
            for (uint32_t d : unit_devs(zone, stripe, u)) {
                if (dev_down_for_zone(d, zone)) {
                    if (z.kind == ZoneKind::kStripe0 &&
                        ctx->status.is_ok())
                        ctx->status = Status(StatusCode::kOffline,
                                             "raid0 member lost");
                    continue;
                }
                IoBuf slice;
                if (store)
                    slice = data.slice(db * kSectorSize,
                                       size_t{len} * kSectorSize);
                submit_piece(d, row, std::move(slice), len);
            }
            pos += len;
            db += len;
        }
    }
    if (store)
        zones_[zone].crc.record(off, data.data(), nsectors);
    ctx->issued_all = true;
    if (ctx->pending == 0)
        finish_write(ctx);
}

void
ZonedEngine::note_tail(uint32_t zone, uint64_t pos, uint32_t n,
                       const uint8_t *bytes)
{
    EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t stripe_sect =
        su * static_cast<uint64_t>(units_of(z.kind));
    uint64_t stripe = pos / stripe_sect;
    uint64_t in_stripe = pos % stripe_sect;
    TailBuf &t = z.tails[stripe];
    if (store_data_ && t.data.empty())
        t.data.assign(stripe_sect * kSectorSize, 0);
    if (bytes != nullptr && !t.data.empty())
        std::memcpy(t.data.data() + in_stripe * kSectorSize, bytes,
                    static_cast<size_t>(n) * kSectorSize);
    t.filled += n;
    if (t.filled == stripe_sect) {
        t.complete = true;
        complete_stripe(zone, stripe);
    }
}

void
ZonedEngine::complete_stripe(uint32_t zone, uint64_t stripe)
{
    PROF_SCOPE("eng.parity.compute");
    write_parity(zone, stripe, nullptr);
    EZone &z = zones_[zone];
    auto it = z.tails.find(stripe);
    if (it != z.tails.end() && it->second.parity_pending == 0)
        z.tails.erase(it);
}

void
ZonedEngine::write_parity(uint32_t zone, uint64_t stripe, MemberJoin *seal)
{
    TailBuf &t = zones_[zone].tails[stripe];
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(zones_[zone].kind);
    const size_t chunk_bytes = static_cast<size_t>(su) * kSectorSize;
    const int pq[2] = {parity_dev(zone, stripe), q_dev(zone, stripe)};
    for (int i = 0; i < 2; ++i) {
        const auto d = static_cast<uint32_t>(pq[i]);
        if (pq[i] < 0 || dev_down_for_zone(d, zone))
            continue;
        IoRequest req;
        if (store_data_) {
            std::vector<uint8_t> p(chunk_bytes, 0);
            for (uint32_t u = 0; u < units; ++u) {
                const uint8_t *src = t.data.data() + u * chunk_bytes;
                if (i == 0)
                    xor_bytes(p.data(), src, chunk_bytes);
                else
                    gf256::accumulate(p.data(), src, chunk_bytes, u);
            }
            req = IoRequest::write(dev_row_lba(zone, stripe * su),
                                   std::move(p));
        } else {
            req = IoRequest::write_len(dev_row_lba(zone, stripe * su), su);
        }
        if (i == 0) {
            req.trace_stage = seal != nullptr ? "eng.parity_seal"
                                              : "eng.parity";
            ++stats_.parity_writes;
        } else {
            req.trace_stage = seal != nullptr ? "eng.q_seal"
                                              : "eng.q_parity";
            ++stats_.q_parity_writes;
        }
        req.cause = obs::Cause::kParity;
        ++t.parity_pending;
        IoCallback joined = seal != nullptr ? seal->member(d) : nullptr;
        chain_submit(d, zone, std::move(req),
                     [this, zone, stripe, d, alive = alive_,
                      joined = std::move(joined)](IoResult r) {
                         if (!*alive)
                             return;
                         if (!joined && !r.status.is_ok())
                             escalate_dev_error(d, r.status);
                         // The tail served degraded reads until its
                         // parity landed; it can go once every issued
                         // parity write is back.
                         EZone &ez = zones_[zone];
                         auto it = ez.tails.find(stripe);
                         if (it != ez.tails.end() &&
                             --it->second.parity_pending == 0 &&
                             it->second.complete)
                             ez.tails.erase(it);
                         if (joined)
                             joined(std::move(r));
                     });
    }
}

void
ZonedEngine::chunk_done(std::shared_ptr<WriteCtx> ctx, uint32_t dev,
                        const Status &s)
{
    if (!s.is_ok() && !escalate_dev_error(dev, s) && ctx->status.is_ok())
        ctx->status = s;
    if (--ctx->pending == 0 && ctx->issued_all)
        finish_write(ctx);
}

void
ZonedEngine::finish_write(std::shared_ptr<WriteCtx> ctx)
{
    auto ack = [this, ctx](Status s) {
        IoResult r;
        r.status = std::move(s);
        if (write_lat_ != nullptr)
            write_lat_->record(loop_->now() - ctx->t0);
        if (ledger_ != nullptr && r.status.is_ok() &&
            ctx->flags.origin == obs::Cause::kUserData)
            ledger_->note_user_write(ctx->nsectors);
        if (trace_ != nullptr && ctx->total_token != 0) {
            trace_->end_span(ctx->total_token, loop_->now());
            ctx->total_token = 0;
        }
        ctx->cb(std::move(r));
    };
    if (!ctx->status.is_ok()) {
        loop_->schedule_after(1, [ack, ctx] { ack(ctx->status); });
        return;
    }
    if (ctx->flags.fua) {
        // A FUA ack promises the whole logical prefix durable; chunks
        // of earlier writes live on other members' caches, so FUA is
        // completed as write + dependency flush (cf. RAIZN §5.1).
        ++stats_.fua_dependency_flushes;
        barrier_flush([ack](IoResult r) { ack(r.status); });
        return;
    }
    loop_->schedule_after(1, [ack] { ack(Status::ok()); });
}

// ---------------------------------------------------------------------
// Flush / reset / finish
// ---------------------------------------------------------------------

void
ZonedEngine::flush(IoCallback cb)
{
    ++stats_.flushes;
    barrier_flush(std::move(cb));
}

void
ZonedEngine::reset_zone(uint32_t zone, IoCallback cb)
{
    if (zone >= nzones_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status =
                Status(StatusCode::kInvalidArgument, "zone out of range");
            cb(std::move(r));
        });
        return;
    }
    auto shared_cb = std::make_shared<IoCallback>(std::move(cb));
    zone_enqueue(zone, [this, zone,
                        shared_cb](std::function<void()> done) {
        EZone &z = zones_[zone];
        auto ack_sched = [this, shared_cb, done](Status s) {
            loop_->schedule_after(1, [shared_cb, s = std::move(s)] {
                IoResult r;
                r.status = s;
                (*shared_cb)(std::move(r));
            });
            done();
        };
        if (rebuild_running()) {
            ack_sched(Status(StatusCode::kBusy, "rebuild in progress"));
            return;
        }
        if (z.fill == 0 && !z.finished && !z.finish_pending) {
            ack_sched(Status::ok()); // empty zone: reset is a no-op
            return;
        }
        z.resetting = true;
        const uint64_t newgen = z.gen + 1;
        ZoneRecord intent;
        intent.op = ZoneRecord::kResetIntent;
        intent.zone = zone;
        intent.gen = newgen;
        log_zone(intent, [this, zone, newgen, shared_cb,
                            done](Status s) {
            if (!s.is_ok()) {
                zones_[zone].resetting = false;
                loop_->schedule_after(1, [shared_cb, s] {
                    IoResult r;
                    r.status = s;
                    (*shared_cb)(std::move(r));
                });
                done();
                return;
            }
            // Intent is durable everywhere; physically reset the zone
            // on every up member (this also cures staleness).
            uint64_t parts = 0;
            for (uint32_t d = 0; d < num_devices(); ++d)
                if (member_up(d))
                    parts |= bit(d);
            MemberJoin join(this, [this, zone, newgen, parts, shared_cb,
                                   done](IoResult r) {
                if (!r.status.is_ok()) {
                    zones_[zone].resetting = false;
                    (*shared_cb)(std::move(r));
                    done();
                    return;
                }
                ZoneRecord drec;
                drec.op = ZoneRecord::kResetDone;
                drec.zone = zone;
                drec.gen = newgen;
                drec.participants = parts;
                log_zone(drec, [this, zone, newgen, parts, shared_cb,
                                  done](Status s2) {
                    EZone &ez = zones_[zone];
                    ez.resetting = false;
                    if (!s2.is_ok()) {
                        IoResult r;
                        r.status = s2;
                        (*shared_cb)(std::move(r));
                        done();
                        return;
                    }
                    ez.fill = 0;
                    ez.gen = newgen;
                    ez.finished = false;
                    ez.finish_pending = false;
                    ez.frozen = false;
                    ez.tails.clear();
                    ez.crc.clear();
                    ez.rec_fill.clear();
                    ez.participants = parts;
                    ez.kind = fixed_kind();
                    ez.kind_decided = cfg_.mode != RaidMode::kAuto;
                    ++stats_.zone_resets;
                    IoResult r;
                    (*shared_cb)(std::move(r));
                    done();
                });
            });
            for (uint32_t d = 0; d < num_devices(); ++d) {
                if (!member_up(d))
                    continue;
                IoRequest req = IoRequest::zone_reset(dev_row_lba(zone, 0));
                req.trace_stage = "eng.zone_reset";
                req.cause = obs::Cause::kZoneMgmt;
                chain_submit(d, zone, std::move(req),
                             join.member(d));
            }
            join.seal();
        });
    });
}

void
ZonedEngine::finish_zone(uint32_t zone, IoCallback cb)
{
    if (zone >= nzones_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status =
                Status(StatusCode::kInvalidArgument, "zone out of range");
            cb(std::move(r));
        });
        return;
    }
    auto shared_cb = std::make_shared<IoCallback>(std::move(cb));
    zone_enqueue(zone, [this, zone,
                        shared_cb](std::function<void()> done) {
        EZone &z = zones_[zone];
        auto ack_sched = [this, shared_cb, done](Status s) {
            loop_->schedule_after(1, [shared_cb, s = std::move(s)] {
                IoResult r;
                r.status = s;
                (*shared_cb)(std::move(r));
            });
            done();
        };
        if (z.finished) {
            ack_sched(Status::ok());
            return;
        }
        if (z.frozen) {
            ack_sched(Status(StatusCode::kReadOnly,
                             "recovered zone is read-only until reset"));
            return;
        }
        if (rebuild_running()) {
            ack_sched(Status(StatusCode::kBusy, "rebuild in progress"));
            return;
        }
        z.finish_pending = true;
        MemberJoin join(this, [this, zone, shared_cb, done](IoResult r) {
            EZone &ez = zones_[zone];
            ez.finish_pending = false;
            if (r.status.is_ok()) {
                ez.finished = true;
                ez.fill = zone_cap_;
                ++stats_.zone_finishes;
            }
            (*shared_cb)(std::move(r));
            done();
        });
        // A finished zone is fully redundant on media: the device-level
        // finish pads every data row with zeros, so the open tail
        // stripe's parity must be sealed as if the stripe were
        // zero-padded to full width. The per-device submit chains keep
        // each seal row ahead of that member's finish command.
        for (auto it = z.tails.begin(); it != z.tails.end();) {
            TailBuf &t = it->second;
            if (t.complete) {
                ++it;
                continue;
            }
            write_parity(zone, it->first, &join);
            if (t.parity_pending == 0) {
                it = z.tails.erase(it); // no live parity member to seal
            } else {
                t.complete = true; // retired once the seal writes ack
                ++it;
            }
        }
        for (uint32_t d = 0; d < num_devices(); ++d) {
            if (!member_up(d))
                continue;
            IoRequest req = IoRequest::zone_finish(dev_row_lba(zone, 0));
            req.trace_stage = "eng.zone_finish";
            req.cause = obs::Cause::kZoneMgmt;
            chain_submit(d, zone, std::move(req),
                         join.member(d));
        }
        join.seal();
    });
}

// ---------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------

void
ZonedEngine::read(uint64_t lba, uint32_t nsectors, IoCallback cb)
{
    PROF_SCOPE("eng.read");
    ++stats_.logical_reads;
    stats_.sectors_read += nsectors;
    if (nsectors == 0 || lba + nsectors > capacity()) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status =
                Status(StatusCode::kInvalidArgument, "read out of range");
            cb(std::move(r));
        });
        return;
    }
    StripeGather::Spec spec;
    spec.fold = StripeGather::Fold::kPlace;
    if (store_data_)
        spec.bytes = static_cast<size_t>(nsectors) * kSectorSize;
    StripeGather g(
        this, spec, observe_io(false, nsectors, nullptr, std::move(cb)));
    for (uint64_t pos = lba; pos < lba + nsectors;) {
        uint32_t zone = static_cast<uint32_t>(pos / zone_cap_);
        uint64_t off = pos % zone_cap_;
        uint32_t len = static_cast<uint32_t>(
            std::min<uint64_t>(zone_cap_ - off, lba + nsectors - pos));
        read_segment(zone, off, len,
                     g.source(static_cast<size_t>(pos - lba) *
                               kSectorSize));
        pos += len;
    }
    g.seal();
}

void
ZonedEngine::read_segment(uint32_t zone, uint64_t off, uint32_t len,
                          DataCb cb)
{
    EZone &z = zones_[zone];
    const uint64_t limit = z.finished ? zone_cap_ : z.fill;
    if (off + len > limit) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kInvalidArgument,
                      "read beyond the zone write pointer"),
               {});
        });
        return;
    }
    if (z.kind == ZoneKind::kMirror) {
        std::vector<uint32_t> cands(num_devices());
        for (uint32_t d = 0; d < num_devices(); ++d)
            cands[d] = d;
        std::vector<uint32_t> srcs = mirror_sources(zone, off + len, cands);
        if (srcs.empty()) {
            loop_->schedule_after(1, [cb = std::move(cb)] {
                cb(Status(StatusCode::kOffline, "no live mirror source"),
                   {});
            });
            return;
        }
        read_replicas(std::make_shared<ReplicaRead>(ReplicaRead{
                          zone, off, len, off, "eng.mirror_read",
                          std::move(srcs), nullptr, std::move(cb)}),
                      0);
        return;
    }
    // Striped kinds: fan out per chunk piece and reassemble in order.
    StripeGather::Spec spec;
    spec.fold = StripeGather::Fold::kPlace;
    if (store_data_)
        spec.bytes = static_cast<size_t>(len) * kSectorSize;
    StripeGather g(this, spec, std::move(cb));
    const uint32_t su = cfg_.su_sectors;
    const uint64_t stripe_sect =
        su * static_cast<uint64_t>(units_of(z.kind));
    for (uint64_t pos = off; pos < off + len;) {
        uint64_t stripe = pos / stripe_sect;
        uint64_t in_stripe = pos % stripe_sect;
        uint32_t u = static_cast<uint32_t>(in_stripe / su);
        uint64_t o = in_stripe % su;
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(su - o, off + len - pos));
        read_chunk(zone, stripe, u, o, n,
                   g.source(static_cast<size_t>(pos - off) * kSectorSize));
        pos += n;
    }
    g.seal();
}

std::vector<uint32_t>
ZonedEngine::mirror_sources(uint32_t zone, uint64_t row_end,
                            const std::vector<uint32_t> &cands) const
{
    const EZone &z = zones_[zone];
    std::vector<uint32_t> out;
    for (uint32_t d : cands) {
        if (dev_down_for_zone(d, zone))
            continue;
        if (!z.rec_fill.empty() && z.rec_fill[d] < row_end)
            continue;
        out.push_back(d);
    }
    return out;
}

void
ZonedEngine::read_chunk(uint32_t zone, uint64_t stripe, uint32_t u,
                        uint64_t o, uint32_t n, DataCb cb)
{
    EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t row0 = stripe * su + o;
    std::vector<uint32_t> live =
        mirror_sources(zone, row0 + n, unit_devs(zone, stripe, u));
    const bool parity_kind = z.kind == ZoneKind::kParity ||
                             z.kind == ZoneKind::kDualParity;
    if (live.empty()) {
        ++stats_.degraded_reads;
        // Open-stripe data whose parity never reached media is served
        // from the in-memory tail (RAIZN closes this hole durably with
        // the partial-parity log; the engine only covers runtime).
        auto it = z.tails.find(stripe);
        const uint64_t in_stripe = static_cast<uint64_t>(u) * su + o;
        if (parity_kind && it != z.tails.end() && store_data_ &&
            !it->second.data.empty() &&
            in_stripe + n <= it->second.filled) {
            std::vector<uint8_t> out(
                it->second.data.begin() + in_stripe * kSectorSize,
                it->second.data.begin() + (in_stripe + n) * kSectorSize);
            loop_->schedule_after(1, [cb = std::move(cb),
                                      out = std::move(out)]() mutable {
                cb(Status::ok(), std::move(out));
            });
            return;
        }
        if (parity_kind) {
            stats_.reconstructed_sectors += n;
            reconstruct_chunk(zone, stripe, u, o, n, obs::Cause::kParity,
                              std::move(cb));
            return;
        }
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kOffline, "data unit lost"), {});
        });
        return;
    }
    // Try each live replica; parity kinds fall back to reconstruction
    // when every replica errors or fails its checksum.
    const uint64_t crc_off = stripe * su * units_of(z.kind) +
                             static_cast<uint64_t>(u) * su + o;
    std::function<void(DataCb)> fallback;
    if (parity_kind) {
        fallback = [this, zone, stripe, u, o, n](DataCb done) {
            stats_.reconstructed_sectors += n;
            reconstruct_chunk(zone, stripe, u, o, n, obs::Cause::kParity,
                              std::move(done));
        };
    }
    read_replicas(std::make_shared<ReplicaRead>(ReplicaRead{
                      zone, row0, n, crc_off, "eng.chunk_read",
                      std::move(live), std::move(fallback), std::move(cb)}),
                  0);
}

void
ZonedEngine::read_replicas(std::shared_ptr<ReplicaRead> rr, size_t idx)
{
    if (idx >= rr->srcs.size()) {
        if (rr->fallback) {
            ++stats_.read_repairs;
            rr->fallback(std::move(rr->cb));
            return;
        }
        rr->cb(Status(StatusCode::kCorruption,
                      "no replica returned valid data"),
               {});
        return;
    }
    const uint32_t d = rr->srcs[idx];
    BlockDevice *sent = devs_[d];
    IoRequest req = IoRequest::read(dev_row_lba(rr->zone, rr->row0), rr->n);
    req.trace_stage = rr->stage;
    req.cause = obs::Cause::kUserData;
    chain_submit(d, rr->zone, std::move(req),
                 [this, rr, idx, d, sent](IoResult r) {
                     if (!r.status.is_ok()) {
                         // An error from a member that a promoted spare
                         // has since replaced must not fail the spare.
                         if (devs_[d] == sent)
                             escalate_dev_error(d, r.status);
                         read_replicas(rr, idx + 1);
                         return;
                     }
                     if (!zones_[rr->zone].crc.verify(
                             rr->crc_off, r.data.data(), rr->n)) {
                         ++stats_.crc_mismatches;
                         read_replicas(rr, idx + 1);
                         return;
                     }
                     if (idx > 0)
                         ++stats_.read_repairs;
                     rr->cb(Status::ok(), std::move(r.data));
                 });
}

void
ZonedEngine::reconstruct_chunk(uint32_t zone, uint64_t stripe, uint32_t u,
                               uint64_t o, uint32_t n, obs::Cause cause,
                               DataCb cb)
{
    EZone &z = zones_[zone];
    if (!store_data_) {
        loop_->schedule_after(1,
                              [cb = std::move(cb)] { cb(Status::ok(), {}); });
        return;
    }
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    const uint64_t row0 = stripe * su + o;
    auto avail_rows = [this, &z, zone, row0, n](uint32_t d) {
        return !dev_down_for_zone(d, zone) &&
               (z.rec_fill.empty() || z.rec_fill[d] >= row0 + n);
    };
    std::vector<uint32_t> missing{u};
    std::vector<uint32_t> have;
    for (uint32_t v = 0; v < units; ++v) {
        if (v == u)
            continue;
        if (avail_rows(chunk_dev(zone, stripe, v)))
            have.push_back(v);
        else
            missing.push_back(v);
    }
    int pd = parity_dev(zone, stripe);
    int qd = q_dev(zone, stripe);
    bool p_ok = pd >= 0 && avail_rows(static_cast<uint32_t>(pd));
    bool q_ok = qd >= 0 && avail_rows(static_cast<uint32_t>(qd));
    StripeGather::Spec spec;
    if (missing.size() == 1 && p_ok) {
        spec.fold = StripeGather::Fold::kXor;
    } else if (missing.size() == 1 && q_ok) {
        spec.fold = StripeGather::Fold::kQ;
    } else if (missing.size() == 2 && p_ok && q_ok) {
        spec.fold = StripeGather::Fold::kTwo;
        spec.other = static_cast<int>(missing[1]);
    } else {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            cb(Status(StatusCode::kIoError,
                      "insufficient redundancy to reconstruct"),
               {});
        });
        return;
    }
    const uint64_t crc_off = stripe * su * static_cast<uint64_t>(units) +
                             static_cast<uint64_t>(u) * su + o;
    spec.bytes = static_cast<size_t>(n) * kSectorSize;
    spec.lost = static_cast<int>(u);
    spec.zone = zone;
    spec.cause = cause;
    spec.stage = "eng.reconstruct_read";
    StripeGather g(
        this, spec,
        [this, zone, n, crc_off, cb = std::move(cb)](
            Status s, IoBuf res) {
            if (s.is_ok() && !zones_[zone].crc.verify(crc_off, res.data(), n)) {
                ++stats_.crc_mismatches;
                s = Status(StatusCode::kCorruption,
                           "reconstructed data failed checksum");
                res = {};
            }
            cb(std::move(s), std::move(res));
        });
    const uint64_t lba = dev_row_lba(zone, row0);
    for (uint32_t v : have)
        g.read(chunk_dev(zone, stripe, v), lba, n, static_cast<int>(v));
    if (spec.fold != StripeGather::Fold::kQ)
        g.read(static_cast<uint32_t>(pd), lba, n, StripeGather::kP);
    if (spec.fold != StripeGather::Fold::kXor)
        g.read(static_cast<uint32_t>(qd), lba, n, StripeGather::kQ);
    g.seal();
}

// ---------------------------------------------------------------------
// Failure management / observability
// ---------------------------------------------------------------------

void
ZonedEngine::link_stats_hook(obs::MetricsRegistry &reg)
{
    obs::link_stats(reg, metric_prefix(), stats_);
}

} // namespace raizn
