#include "raizn/volume_impl.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "array/stripe_gather.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "common/slab.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {

namespace {

uint64_t g_uuid_source = 0x5a4e5331; // deterministic array UUIDs

} // namespace

RaiznVolume::RaiznVolume(EventLoop *loop, std::vector<BlockDevice *> devs,
                         const RaiznConfig &cfg)
    : ZonedArray(loop, std::move(devs),
                 StatCells{&stats_.io_retries, &stats_.io_timeouts,
                           &stats_.dev_errors, &stats_.spares_promoted,
                           &stats_.auto_failovers,
                           &stats_.rebuild_throttle_stalls,
                           &stats_.scrubbed_stripes,
                           &stats_.crc_mismatches}),
      cfg_(cfg)
{
    layout_ = std::make_unique<Layout>(cfg_, devs_[0]->geometry());
    md_ = std::make_unique<MdManager>(
        loop_,
        MdZoneRange::trailing(devs_[0]->geometry(),
                              cfg_.md_zones_per_device),
        devs_);
    md_->set_snapshot_provider(
        [this](uint32_t dev, MdZoneRole role) {
            return snapshot_for_gc(dev, role);
        });
    gen_.reset(layout_->num_logical_zones());
    // Direct construction: LZone is move-only and the vector never
    // grows afterwards.
    zones_ = std::vector<LZone>(layout_->num_logical_zones());
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        zones_[z].start = layout_->zone_start_lba(z);
        zones_[z].cap_end = zones_[z].start + layout_->logical_zone_cap();
        zones_[z].wp = zones_[z].start;
        zones_[z].crc = CrcCatalog(layout_->logical_zone_cap());
    }
    // The general and parity-log metadata zones on each device stay
    // open, and metadata GC transiently opens one more; expose the rest.
    uint32_t dev_open = devs_[0]->geometry().max_open_zones;
    max_open_zones_ = dev_open > 3 ? dev_open - 3 : 1;
    // Timing-only arrays skip data-plane byte handling everywhere.
    store_data_ = true;
    for (BlockDevice *d : devs_)
        store_data_ &= d->data_mode() == DataMode::kStore;

    md_->set_retrier(retrier_.get());
}

RaiznVolume::~RaiznVolume() = default;

void
RaiznVolume::on_resilience_changed()
{
    md_->set_retrier(retrier_.get());
}

void
RaiznVolume::link_stats_hook(obs::MetricsRegistry &reg)
{
    obs::link_stats(reg, "raizn", stats_);
}

size_t
RaiznVolume::open_stripe_buffers() const
{
    size_t n = 0;
    for (const LZone &z : zones_)
        n += z.buffers.size();
    return n;
}

size_t
RaiznVolume::pp_backlog() const
{
    size_t n = 0;
    for (const auto &[key, records] : pp_index_)
        n += records.size();
    return n;
}

size_t
RaiznVolume::reloc_backlog() const
{
    return reloc_.size() + parity_reloc_.size();
}

void
RaiznVolume::install_timeline(obs::Timeline *tl)
{
    if (tl == nullptr || reg_ == nullptr)
        return;
    obs::Gauge *buffers = reg_->gauge("raizn.gauge.stripe_buffers");
    obs::Gauge *pp = reg_->gauge("raizn.gauge.pp_records");
    obs::Gauge *reloc = reg_->gauge("raizn.gauge.reloc_entries");
    obs::Gauge *open_zones = reg_->gauge("raizn.gauge.open_zones");
    std::vector<std::array<obs::Gauge *, 4>> census;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        std::string prefix = strprintf("zns.dev%u", d);
        census.push_back({reg_->gauge(prefix + ".zones_empty"),
                          reg_->gauge(prefix + ".zones_open"),
                          reg_->gauge(prefix + ".zones_closed"),
                          reg_->gauge(prefix + ".zones_full")});
    }
    tl->add_probe([this, buffers, pp, reloc, open_zones,
                   census = std::move(census)] {
        buffers->set(open_stripe_buffers());
        pp->set(pp_backlog());
        reloc->set(reloc_backlog());
        open_zones->set(open_zones_);
        // Re-resolve each sample: promote_spare can swap device
        // pointers mid-run, and a member may be a decorator that is
        // not a ZnsDevice (census gauges then stay at their last
        // value).
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            auto *zd = dynamic_cast<ZnsDevice *>(devs_[d]);
            if (zd == nullptr)
                continue;
            ZnsDevice::ZoneCensus c = zd->zone_census();
            census[d][0]->set(c.empty);
            census[d][1]->set(c.open);
            census[d][2]->set(c.closed);
            census[d][3]->set(c.full);
        }
    }, this);
}

std::string
VolumeStats::dump() const
{
    return obs::render_stats(*this);
}

IoResult
RaiznVolume::dev_sync(uint32_t dev, IoRequest req)
{
    return submit_sync(*loop_, *devs_[dev], std::move(req));
}

bool
RaiznVolume::dev_unavailable(uint32_t dev, uint32_t zone) const
{
    if (devs_[dev]->failed())
        return true;
    if (!is_marked_failed(dev))
        return false;
    // Marked failed but replaced: zones already rebuilt are usable.
    return !zone_rebuilt(zone);
}

Result<std::unique_ptr<RaiznVolume>>
RaiznVolume::create(EventLoop *loop, std::vector<BlockDevice *> devs,
                    const RaiznConfig &cfg)
{
    if (!cfg.valid() || devs.size() != cfg.num_devices)
        return Status(StatusCode::kInvalidArgument, "bad array config");
    const DeviceGeometry &g0 = devs[0]->geometry();
    if (!g0.zoned)
        return Status(StatusCode::kInvalidArgument, "devices must be ZNS");
    for (BlockDevice *d : devs) {
        const DeviceGeometry &g = d->geometry();
        if (!g.zoned || g.zone_size != g0.zone_size ||
            g.zone_capacity != g0.zone_capacity ||
            g.nzones != g0.nzones) {
            return Status(StatusCode::kInvalidArgument,
                          "device geometries differ");
        }
    }
    if (g0.zone_capacity % cfg.su_sectors != 0) {
        return Status(StatusCode::kInvalidArgument,
                      "zone capacity not a multiple of the stripe unit");
    }

    auto vol = std::unique_ptr<RaiznVolume>(
        new RaiznVolume(loop, std::move(devs), cfg));
    Status st = vol->md_->format();
    if (!st)
        return st;
    vol->sb_.array_uuid = ++g_uuid_source;
    vol->sb_.from_config(cfg);
    vol->sb_.seq = 1;
    st = vol->persist_superblocks();
    if (!st)
        return st;
    return vol;
}

Status
RaiznVolume::persist_superblocks()
{
    sb_.seq++;
    uint32_t pending = 0;
    Status first;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (devs_[d]->failed())
            continue;
        Superblock copy = sb_;
        copy.dev_id = d;
        MdAppend app;
        app.header.type = MdType::kSuperblock;
        app.inline_data = copy.encode();
        pending++;
        md_->append(d, MdZoneRole::kGeneral, std::move(app),
                    /*durable=*/true, [&](Status s) {
                        if (!s.is_ok() && first.is_ok())
                            first = s;
                        pending--;
                    });
    }
    loop_->run_until_pred([&] { return pending == 0; });
    return first;
}

Result<ZoneInfo>
RaiznVolume::zone_info(uint32_t zone) const
{
    if (zone >= zones_.size())
        return Status(StatusCode::kInvalidArgument, "zone out of range");
    const LZone &lz = zones_[zone];
    ZoneInfo info;
    info.start = lz.start;
    info.capacity = layout_->logical_zone_cap();
    info.wp = lz.wp;
    info.state = lz.cond;
    return info;
}

// ---- Stripe buffers ---------------------------------------------------

StripeBuffer *
RaiznVolume::get_buffer(uint32_t zone, uint64_t stripe)
{
    LZone &lz = zones_[zone];
    if (lz.buffers.empty()) {
        for (uint32_t i = 0; i < cfg_.stripe_buffers_per_zone; ++i) {
            lz.buffers.push_back(std::make_unique<StripeBuffer>(
                cfg_.data_units(), cfg_.su_sectors, !store_data_));
        }
    }
    StripeBuffer *buf =
        lz.buffers[stripe % cfg_.stripe_buffers_per_zone].get();
    if (buf->stripe_no() != stripe) {
        if (buf->bound())
            stats_.stripe_buffer_recycles++;
        buf->assign(stripe);
    }
    return buf;
}

void
RaiznVolume::open_zone_state(uint32_t zone)
{
    LZone &lz = zones_[zone];
    if (lz.cond == raizn::ZoneState::kEmpty ||
        lz.cond == raizn::ZoneState::kClosed) {
        if (lz.cond == raizn::ZoneState::kEmpty) {
            lz.pbm.reset(layout_->logical_zone_cap() / cfg_.su_sectors,
                         cfg_.su_sectors);
        }
        lz.cond = raizn::ZoneState::kImplicitOpen;
        open_zones_++;
    }
}

void
RaiznVolume::drain_waiters(uint32_t zone)
{
    LZone &lz = zones_[zone];
    while (!lz.blocked && !lz.waiters.empty()) {
        auto fn = std::move(lz.waiters.front());
        lz.waiters.pop_front();
        fn();
    }
}

// ---- Write path -------------------------------------------------------

void
RaiznVolume::submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                          WriteFlags flags, IoCallback cb)
{
    auto fail = [&](StatusCode code, const char *msg) {
        IoResult r;
        r.status = Status(code, msg);
        loop_->schedule_after(1,
                              [cb = std::move(cb), r = std::move(r)]() mutable {
                                  cb(std::move(r));
                              });
    };
    if (refuse_write(cb))
        return;
    if (nsectors == 0 || lba + nsectors > capacity())
        return fail(StatusCode::kInvalidArgument, "write out of range");
    uint32_t zone = layout_->zone_of(lba);
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        // Zone reset in flight: queue behind it (§5.2).
        lz.waiters.push_back([this, lba, data = std::move(data), nsectors,
                              flags, cb = std::move(cb)]() mutable {
            submit_write(lba, nsectors, std::move(data), flags,
                         std::move(cb));
        });
        return;
    }
    if (lz.cond == raizn::ZoneState::kFull)
        return fail(StatusCode::kNoSpace, "zone full");
    if (lba != lz.wp)
        return fail(StatusCode::kWritePointerMismatch,
                    "write not at zone write pointer");
    if (lba + nsectors > lz.cap_end)
        return fail(StatusCode::kZoneBoundary,
                    "write crosses zone capacity");
    if (lz.cond == raizn::ZoneState::kEmpty &&
        open_zones_ >= max_open_zones_) {
        return fail(StatusCode::kTooManyOpenZones,
                    "logical open zone limit");
    }

    if (flags.preflush) {
        // Persist all prior data on every device before this write.
        flush([this, lba, data = std::move(data), nsectors, flags,
               cb = std::move(cb)](IoResult r) mutable {
            if (!r.status.is_ok()) {
                cb(std::move(r));
                return;
            }
            WriteFlags f2 = flags;
            f2.preflush = false;
            process_write(lba, std::move(data), nsectors, f2,
                          std::move(cb));
        });
        return;
    }
    process_write(lba, std::move(data), nsectors, flags, std::move(cb));
}

void
RaiznVolume::process_write(uint64_t lba, IoBuf data, uint32_t nsectors,
                           WriteFlags flags, IoCallback cb)
{
    PROF_SCOPE("raizn.write");
    uint32_t zone = layout_->zone_of(lba);
    LZone &lz = zones_[zone];
    open_zone_state(zone);
    lz.wp = lba + nsectors;

    stats_.logical_writes++;
    stats_.sectors_written += nsectors;
    if (flags.fua)
        stats_.fua_writes++;
    lz.crc.record(lba - lz.start, data.empty() ? nullptr : data.data(),
                  nsectors);

    // Pooled: one per logical write on the hot path.
    auto ctx = std::allocate_shared<WriteCtx>(PoolAllocator<WriteCtx>());
    ctx->flags = flags;
    ctx->zone = zone;
    ctx->end_lba = lba + nsectors;
    ctx->nsectors = nsectors;
    ctx->cb = std::move(cb);
    ctx->start_tick = loop_->now();
    if (trace_ != nullptr) {
        ctx->req_id = trace_->next_request_id();
        ctx->total_token = trace_->begin_span(
            "raizn.write", ctx->req_id, obs::kTrackRequest, loop_->now());
    }

    const uint64_t ss = layout_->stripe_sectors();
    const uint32_t su = cfg_.su_sectors;
    uint64_t off = lba - lz.start; // zone offset of write start
    uint64_t end = off + nsectors;
    uint64_t cur = off;

    while (cur < end) {
        uint64_t stripe = cur / ss;
        uint64_t stripe_lo = stripe * ss;
        uint64_t chunk_end = std::min<uint64_t>(end, stripe_lo + ss);
        StripeBuffer *buf = get_buffer(zone, stripe);
        const uint8_t *src = data.empty()
            ? nullptr
            : data.data() + (cur - off) * kSectorSize;
        buf->fill(cur - stripe_lo, src, chunk_end - cur);

        // Data sub-IOs, one per touched stripe unit.
        uint64_t piece = cur;
        while (piece < chunk_end) {
            uint64_t in_stripe = piece - stripe_lo;
            uint32_t k = static_cast<uint32_t>(in_stripe / su);
            uint64_t in_su = in_stripe % su;
            uint64_t piece_end =
                std::min<uint64_t>(chunk_end,
                                   stripe_lo + (k + 1ull) * su);
            uint32_t len = static_cast<uint32_t>(piece_end - piece);
            uint32_t dev = layout_->data_dev(zone, stripe, k);
            uint64_t pba = layout_->slot_pba(zone, stripe) + in_su;
            // The unit's bytes are a slice of the logical write's.
            IoBuf bytes = data.slice((piece - off) * kSectorSize,
                                     size_t{len} * kSectorSize);
            submit_data_subio(dev, zone, pba, std::move(bytes), len,
                              lz.start + piece, flags.fua, ctx);
            piece = piece_end;
        }

        if (buf->complete()) {
            // Full stripe: write final parity to the data zone.
            submit_parity_subio(zone, stripe, buf->full_parity(),
                                flags.fua, ctx);
            pp_index_.erase(zs_key(zone, stripe));
        } else {
            // Partial stripe: log the parity delta for exactly the
            // range this write affected (§5.1).
            uint64_t lo_sector, hi_sector;
            std::vector<uint8_t> delta = buf->parity_delta(
                cur - stripe_lo, chunk_end - stripe_lo, &lo_sector,
                &hi_sector);
            log_partial_parity(zone, stripe, lz.start + cur,
                               lz.start + chunk_end, std::move(delta),
                               lo_sector, hi_sector, ctx);
        }
        cur = chunk_end;
    }

    if (lz.wp == lz.cap_end) {
        lz.cond = raizn::ZoneState::kFull;
        open_zones_--;
        // Stripe buffers belong to open zones only (§5.1); the final
        // parity is already captured in the sub-IOs above.
        lz.buffers.clear();
    }

    ctx->issued_all = true;
    if (ctx->pending == 0)
        finish_write(ctx);
}

void
RaiznVolume::submit_data_subio(uint32_t dev, uint32_t zone, uint64_t pba,
                               IoBuf data, uint32_t nsectors, uint64_t lba,
                               bool fua, std::shared_ptr<WriteCtx> ctx)
{
    if (dev_unavailable(dev, zone)) {
        // Degraded write: the stripe unit is simply omitted (§4.2).
        return;
    }
    if (pba < burned_.burned_end(dev, zone)) {
        // The arithmetic PBA holds stale pre-crash data that cannot be
        // overwritten: redirect to the metadata zone (§5.2, Fig. 1).
        PROF_SCOPE("raizn.reloc");
        stats_.relocated_writes++;
        ctx->pending++;
        uint64_t tok = trace_ != nullptr
            ? trace_->begin_span("write.reloc", ctx->req_id,
                                 obs::kTrackMetadata, loop_->now())
            : 0;
        relocate_unit(dev, zone, lba, nsectors, /*parity=*/false,
                      std::move(data), /*durable=*/ctx->flags.fua,
                      md_done(ctx, tok));
        return;
    }
    ctx->pending++;
    IoRequest req;
    req.op = IoOp::kWrite;
    req.slba = pba;
    req.nsectors = nsectors;
    req.fua = fua;
    req.data = std::move(data);
    req.trace_req = ctx->req_id;
    req.trace_stage = "write.data";
    req.cause = ctx->flags.origin;
    dev_submit(dev, std::move(req), member_done(std::move(ctx), dev));
}

void
RaiznVolume::submit_parity_subio(uint32_t zone, uint64_t stripe,
                                 IoBuf parity, bool fua,
                                 std::shared_ptr<WriteCtx> ctx)
{
    uint32_t dev = layout_->parity_dev(zone, stripe);
    uint64_t pba = layout_->slot_pba(zone, stripe);
    stats_.full_parity_writes++;
    if (dev_unavailable(dev, zone))
        return;
    if (pba < burned_.burned_end(dev, zone)) {
        // Parity slot burned: keep the parity in the metadata zone.
        ctx->pending++;
        stats_.relocated_writes++;
        uint64_t tok = trace_ != nullptr
            ? trace_->begin_span("write.parity_reloc", ctx->req_id,
                                 obs::kTrackMetadata, loop_->now())
            : 0;
        relocate_unit(dev, zone, zs_key(zone, stripe), cfg_.su_sectors,
                      /*parity=*/true, std::move(parity), /*durable=*/false,
                      md_done(ctx, tok));
        return;
    }
    ctx->pending++;
    IoRequest req;
    req.op = IoOp::kWrite;
    req.slba = pba;
    req.nsectors = cfg_.su_sectors;
    req.fua = fua;
    req.data = std::move(parity);
    req.trace_req = ctx->req_id;
    req.trace_stage = "write.parity";
    req.cause = obs::Cause::kParity;
    dev_submit(dev, std::move(req), member_done(std::move(ctx), dev));
}

MdAppend
RaiznVolume::make_pp_append(uint32_t zone, uint64_t stripe,
                            uint64_t start_lba, uint64_t end_lba,
                            uint64_t lo_sector, uint64_t hi_sector,
                            std::vector<uint8_t> delta) const
{
    (void)stripe;
    MdAppend app;
    app.header.type = MdType::kPartialParity;
    app.header.start_lba = start_lba;
    app.header.end_lba = end_lba;
    app.header.generation = gen_.get(zone);
    app.inline_data.assign(12, 0);
    uint32_t lo32 = static_cast<uint32_t>(lo_sector);
    std::memcpy(app.inline_data.data() + 4, &lo32, 4);
    app.set_payload(hi_sector - lo_sector, std::move(delta));
    return app;
}

void
RaiznVolume::log_partial_parity(uint32_t zone, uint64_t stripe,
                                uint64_t start_lba, uint64_t end_lba,
                                std::vector<uint8_t> delta,
                                uint64_t lo_sector, uint64_t hi_sector,
                                std::shared_ptr<WriteCtx> ctx)
{
    PROF_SCOPE("raizn.pp_log");
    stats_.partial_parity_logs++;
    stats_.partial_parity_sectors += hi_sector - lo_sector;

    // Remember the delta in memory for degraded reconstruction of the
    // incomplete stripe.
    PpRecord rec;
    rec.start_lba = start_lba;
    rec.end_lba = end_lba;
    rec.lo_sector = lo_sector;
    rec.delta = metered_copy(delta);
    std::vector<PpRecord> &recs = pp_index_[zs_key(zone, stripe)];
    if (recs.empty())
        recs.reserve(cfg_.data_units()); // one per unit-sized fill
    recs.push_back(std::move(rec));

    if (debug_fault_ == DebugFault::kSkipPartialParityLog)
        return; // deliberate bug: in-memory index only, nothing durable

    uint32_t dev = layout_->parity_dev(zone, stripe);
    if (dev_unavailable(dev, zone))
        return; // degraded: partial parity is omitted with its device
    ctx->pending++;
    MdAppend app = make_pp_append(zone, stripe, start_lba, end_lba,
                                  lo_sector, hi_sector, std::move(delta));
    uint64_t tok = trace_ != nullptr
        ? trace_->begin_span("write.pp_log", ctx->req_id,
                             obs::kTrackMetadata, loop_->now())
        : 0;
    md_->append(dev, MdZoneRole::kParityLog, std::move(app),
                /*durable=*/ctx->flags.fua, md_done(ctx, tok));
}

void
RaiznVolume::relocate_unit(uint32_t dev, uint32_t zone, uint64_t key,
                           uint32_t nsectors, bool parity, IoBuf bytes,
                           bool durable, StatusCb done)
{
    MdAppend app;
    app.header.type = MdType::kRelocatedSu;
    app.header.start_lba = key;
    app.header.end_lba = parity ? key : key + nsectors;
    app.header.generation = gen_.get(zone);
    app.inline_data.assign(8, 0);
    app.inline_data[4] = parity ? 1 : 0; // parity marker
    // The relocation caches the bytes (its own copy when they are
    // shared with the logical write) and the entry takes a copy.
    std::vector<uint8_t> img = std::move(bytes).to_vector();
    app.set_payload(nsectors, metered_copy(img));

    Relocation rel;
    rel.lba = key;
    rel.nsectors = nsectors;
    rel.dev = dev;
    // The payload follows the header sector.
    rel.md_pba = md_->active_zone_wp(dev, MdZoneRole::kGeneral) + 1;
    rel.cached = std::move(img); // relocations are cached (§5.2)
    if (parity)
        parity_reloc_[key] = std::move(rel);
    else
        reloc_.insert(std::move(rel));
    md_->append(dev, MdZoneRole::kGeneral, std::move(app), durable,
                std::move(done));
}

void
RaiznVolume::subio_done(std::shared_ptr<WriteCtx> ctx, Status status)
{
    if (!status.is_ok() && ctx->status.is_ok())
        ctx->status = status;
    assert(ctx->pending > 0);
    ctx->pending--;
    if (ctx->pending == 0 && ctx->issued_all)
        finish_write(ctx);
}

IoCallback
RaiznVolume::member_done(std::shared_ptr<WriteCtx> ctx, uint32_t dev)
{
    uint32_t slot = sub_ios_.acquire();
    sub_ios_[slot].ctx = std::move(ctx);
    sub_ios_[slot].dev = dev;
    return [this, slot](IoResult r) {
        SubIo io = std::move(sub_ios_[slot]);
        sub_ios_.release(slot);
        if (!r.status.is_ok() && escalate_dev_error(io.dev, r.status)) {
            // Degraded write: the device is failed, the stripe unit is
            // omitted (§4.2).
            subio_done(std::move(io.ctx), Status::ok());
            return;
        }
        subio_done(std::move(io.ctx), r.status);
    };
}

StatusCb
RaiznVolume::md_done(std::shared_ptr<WriteCtx> ctx, uint64_t tok)
{
    uint32_t slot = sub_ios_.acquire();
    sub_ios_[slot].ctx = std::move(ctx);
    sub_ios_[slot].tok = tok;
    return [this, slot](Status s) {
        SubIo io = std::move(sub_ios_[slot]);
        sub_ios_.release(slot);
        if (trace_ != nullptr && io.tok != 0)
            trace_->end_span(io.tok, loop_->now());
        subio_done(std::move(io.ctx), s);
    };
}

void
RaiznVolume::finish_write(std::shared_ptr<WriteCtx> ctx)
{
    if (ctx->in_flush_phase || !ctx->flags.fua || !ctx->status.is_ok()) {
        IoResult r;
        r.status = ctx->status;
        r.lba = ctx->end_lba;
        if (ctx->flags.fua && ctx->status.is_ok()) {
            zones_[ctx->zone].pbm.mark_persisted_upto(
                ctx->end_lba - zones_[ctx->zone].start);
        }
        if (trace_ != nullptr && ctx->total_token != 0) {
            trace_->end_span(ctx->total_token, loop_->now());
            ctx->total_token = 0;
        }
        if (write_lat_ != nullptr)
            write_lat_->record(loop_->now() - ctx->start_tick);
        if (ledger_ != nullptr && ctx->status.is_ok() &&
            ctx->flags.origin == obs::Cause::kUserData)
            ledger_->note_user_write(ctx->nsectors);
        auto cb = std::move(ctx->cb);
        cb(std::move(r));
        return;
    }
    start_fua_flush_phase(ctx);
}

void
RaiznVolume::start_fua_flush_phase(std::shared_ptr<WriteCtx> ctx)
{
    // FUA: every LBA preceding this write in the zone must be durable
    // before completion is reported (§5.3, Fig. 6). Find the devices
    // still holding non-persisted stripe units.
    ctx->in_flush_phase = true;
    LZone &lz = zones_[ctx->zone];
    uint64_t end_off = ctx->end_lba - lz.start;
    uint64_t end_units = div_ceil(end_off, cfg_.su_sectors);
    uint64_t first = lz.pbm.persisted_prefix_units();
    if (first >= end_units) {
        finish_write(ctx); // everything already durable
        return;
    }
    std::vector<bool> need(devs_.size(), false);
    const uint32_t D = cfg_.data_units();
    for (uint64_t u = first; u < end_units; ++u) {
        if (lz.pbm.unit_persisted(u))
            continue;
        uint64_t stripe = u / D;
        uint32_t k = static_cast<uint32_t>(u % D);
        need[layout_->data_dev(ctx->zone, stripe, k)] = true;
        // The stripe's parity (or partial parity log) lives on the
        // parity device; flush it too.
        need[layout_->parity_dev(ctx->zone, stripe)] = true;
    }
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        // A member rebuilt for this zone takes its writes: flush it too.
        if (!need[d] || dev_unavailable(d, ctx->zone))
            continue;
        ctx->pending++;
        stats_.fua_dependency_flushes++;
        IoRequest freq = IoRequest::flush();
        freq.trace_req = ctx->req_id;
        freq.trace_stage = "write.fua_flush";
        freq.cause = ctx->flags.origin;
        dev_submit(d, std::move(freq), member_done(ctx, d));
    }
    if (ctx->pending == 0)
        finish_write(ctx);
}

void
RaiznVolume::flush(IoCallback cb)
{
    PROF_SCOPE("raizn.flush");
    stats_.flushes++;
    // Duplicate the flush to every up member, the rebuild target
    // included (§5.3). Everything submitted before the flush becomes
    // durable at its completion: snapshot the write pointers.
    std::vector<uint64_t> wps;
    wps.reserve(zones_.size());
    for (const LZone &lz : zones_)
        wps.push_back(lz.wp - lz.start);
    IoRequest freq = IoRequest::flush();
    freq.cause = obs::Cause::kUserData;
    fan_out(freq, [this, wps = std::move(wps),
                   cb = std::move(cb)](IoResult r) {
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            if (wps[z] > 0)
                zones_[z].pbm.mark_persisted_upto(wps[z]);
        }
        cb(std::move(r));
    });
}

// ---- Zone management --------------------------------------------------

void
RaiznVolume::reset_zone(uint32_t zone, IoCallback cb)
{
    if (zone >= zones_.size()) {
        IoResult r;
        r.status = Status(StatusCode::kInvalidArgument, "bad zone");
        loop_->schedule_after(1, [cb = std::move(cb), r]() mutable {
            cb(std::move(r));
        });
        return;
    }
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        lz.waiters.push_back([this, zone, cb = std::move(cb)]() mutable {
            reset_zone(zone, std::move(cb));
        });
        return;
    }
    if (lz.cond == raizn::ZoneState::kEmpty) {
        IoResult r;
        loop_->schedule_after(1, [cb = std::move(cb), r]() mutable {
            cb(std::move(r));
        });
        return;
    }
    stats_.zone_resets++;
    // Block all IO to the zone until every physical zone is reset
    // (§5.2). The reset pointer is the logical wp at receipt.
    lz.blocked = true;

    // 1. Log the reset intent durably on two devices: the one holding
    //    the zone's first stripe unit and the one holding the first
    //    stripe's parity (rotated per zone by the layout).
    uint32_t dev_a = layout_->data_dev(zone, 0, 0);
    uint32_t dev_b = layout_->parity_dev(zone, 0);
    auto wal_pending = std::make_shared<uint32_t>(0);
    auto do_resets = [this, zone, cb = std::move(cb)]() mutable {
        // 2. Reset every physical zone.
        MemberJoin join(this, [this, zone, cb = std::move(cb)](IoResult r) {
            // 3. All physical zones reset: bump and persist the
            //    generation counter, clear in-memory state, unblock.
            LZone &lz = zones_[zone];
            gen_.increment(zone);
            persist_gen_block(gen_.block_of(zone));
            if (is_open(lz.cond))
                open_zones_--;
            lz.cond = raizn::ZoneState::kEmpty;
            lz.wp = lz.start;
            lz.pbm.clear();
            lz.crc.clear();
            lz.buffers.clear();
            reloc_.drop_zone(lz.start, lz.cap_end);
            burned_.clear_zone(static_cast<uint32_t>(devs_.size()), zone);
            auto it = pp_index_.lower_bound(zs_key(zone, 0));
            while (it != pp_index_.end() &&
                   it->first < zs_key(zone + 1, 0)) {
                it = pp_index_.erase(it);
            }
            auto pit = parity_reloc_.begin();
            while (pit != parity_reloc_.end()) {
                if ((pit->first >> 32) == zone)
                    pit = parity_reloc_.erase(pit);
                else
                    ++pit;
            }
            lz.blocked = false;
            drain_waiters(zone);
            cb(std::move(r));
        });
        uint64_t phys_zone_start =
            static_cast<uint64_t>(zone) * layout_->phys_zone_size();
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            if (dev_unavailable(d, zone))
                continue;
            IoRequest rst = IoRequest::zone_reset(phys_zone_start);
            rst.cause = obs::Cause::kZoneMgmt;
            join.send(d, std::move(rst));
        }
        join.seal();
    };

    auto on_wal = std::make_shared<std::function<void(Status)>>();
    *wal_pending = 0;
    std::vector<uint32_t> wal_devs;
    wal_devs.push_back(dev_a);
    if (dev_b != dev_a)
        wal_devs.push_back(dev_b);
    auto do_resets_shared =
        std::make_shared<std::function<void()>>(std::move(do_resets));
    *on_wal = [wal_pending, do_resets_shared](Status s) {
        if (!s.is_ok())
            LOG_WARN("reset WAL write failed: %s", s.to_string().c_str());
        if (--*wal_pending == 0)
            (*do_resets_shared)();
    };
    for (uint32_t d : wal_devs) {
        if (is_marked_failed(d) || devs_[d]->failed())
            continue;
        (*wal_pending)++;
    }
    if (*wal_pending == 0) {
        (*do_resets_shared)();
        return;
    }
    for (uint32_t d : wal_devs) {
        if (is_marked_failed(d) || devs_[d]->failed())
            continue;
        MdAppend app;
        app.header.type = MdType::kZoneResetLog;
        app.header.start_lba = zones_[zone].start;
        app.header.end_lba = zones_[zone].cap_end;
        app.header.generation = gen_.get(zone);
        app.inline_data = encode_zone_reset({zone});
        md_->append(d, MdZoneRole::kGeneral, std::move(app),
                    /*durable=*/true, *on_wal);
    }
}

void
RaiznVolume::persist_gen_block(uint32_t block)
{
    uint64_t seq = gen_update_seq_++;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (is_marked_failed(d) || devs_[d]->failed())
            continue;
        MdAppend app;
        app.header = gen_.block_header(block, seq);
        app.inline_data = gen_.encode_block(block);
        md_->append(d, MdZoneRole::kGeneral, std::move(app), false,
                    [](Status s) {
                        if (!s.is_ok()) {
                            LOG_WARN("gen counter persist failed: %s",
                                     s.to_string().c_str());
                        }
                    });
    }
}

void
RaiznVolume::finish_zone(uint32_t zone, IoCallback cb)
{
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        lz.waiters.push_back([this, zone, cb = std::move(cb)]() mutable {
            finish_zone(zone, std::move(cb));
        });
        return;
    }
    MemberJoin join(this, [this, zone, cb = std::move(cb)](IoResult r) {
        LZone &lz = zones_[zone];
        if (is_open(lz.cond))
            open_zones_--;
        lz.cond = raizn::ZoneState::kFull;
        lz.pbm.mark_persisted_upto(lz.wp - lz.start);
        lz.wp = lz.cap_end;
        lz.buffers.clear();
        cb(std::move(r));
    });
    uint64_t fill = lz.wp - lz.start;
    uint64_t in_stripe = fill % layout_->stripe_sectors();
    if (in_stripe > 0) {
        // Seal the open stripe before finishing: its parity slot must
        // hold the XOR of the written prefix (unwritten units read as
        // zeros once the zone is Full) so the parity invariant spans
        // the whole finished zone and a crash mid-finish reconstructs
        // zeros — not garbage XOR'd from an unwritten parity slot.
        uint64_t stripe = fill / layout_->stripe_sectors();
        uint64_t slot = layout_->slot_pba(zone, stripe);
        uint32_t pdev = layout_->parity_dev(zone, stripe);
        bool slot_writable = !dev_unavailable(pdev, zone) &&
            slot >= burned_.burned_end(pdev, zone);
        if (slot_writable) {
            // Relocations can leave the physical wp behind the slot;
            // such stripes are served via the relocation map instead.
            auto zi = devs_[pdev]->zone_info(zone);
            slot_writable = zi.is_ok() && zi.value().wp == slot;
        }
        if (slot_writable) {
            StripeBuffer *buf = get_buffer(zone, stripe);
            std::vector<uint8_t> parity;
            if (store_data_ && buf->stripe_no() == stripe)
                parity = buf->prefix_parity();
            stats_.full_parity_writes++;
            IoRequest req;
            req.op = IoOp::kWrite;
            req.slba = slot;
            req.nsectors = cfg_.su_sectors;
            req.data = std::move(parity);
            req.cause = obs::Cause::kParity;
            join.send(pdev, std::move(req));
        }
    }
    uint64_t phys_zone_start =
        static_cast<uint64_t>(zone) * layout_->phys_zone_size();
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        // A target that has not rebuilt this zone yet stays empty: the
        // walk fills it and the zone ends full there.
        if (dev_unavailable(d, zone))
            continue;
        IoRequest fin = IoRequest::zone_finish(phys_zone_start);
        fin.cause = obs::Cause::kZoneMgmt;
        join.send(d, std::move(fin));
    }
    join.seal();
}

// ---- Read path --------------------------------------------------------

void
RaiznVolume::read(uint64_t lba, uint32_t nsectors, IoCallback cb)
{
    PROF_SCOPE("raizn.read");
    if (nsectors == 0 || lba + nsectors > capacity()) {
        IoResult r;
        r.status = Status(StatusCode::kInvalidArgument, "read out of range");
        loop_->schedule_after(1, [cb = std::move(cb), r]() mutable {
            cb(std::move(r));
        });
        return;
    }
    uint32_t zone = layout_->zone_of(lba);
    LZone &lz = zones_[zone];
    if (lz.blocked) {
        lz.waiters.push_back([this, lba, nsectors,
                              cb = std::move(cb)]() mutable {
            read(lba, nsectors, std::move(cb));
        });
        return;
    }
    stats_.logical_reads++;
    stats_.sectors_read += nsectors;
    uint64_t treq = 0;
    cb = observe_io(false, nsectors, "raizn.read", std::move(cb), &treq);
    read_extents(lba, nsectors, treq, std::move(cb));
}

void
RaiznVolume::read_extents(uint64_t lba, uint32_t nsectors, uint64_t treq,
                          IoCallback cb)
{
    ExtentList extents;
    layout_->map_range(lba, nsectors, &extents);
    StripeGather::Spec spec;
    spec.fold = StripeGather::Fold::kPlace;
    if (store_data_)
        spec.bytes = static_cast<size_t>(nsectors) * kSectorSize;
    StripeGather g(this, spec, std::move(cb));
    for (const auto &ext : extents) {
        // Split the extent into runs with uniform relocation state:
        // inside one relocation, or up to the next one.
        uint64_t cur = ext.lba;
        uint64_t end = ext.lba + ext.nsectors;
        while (cur < end) {
            const Relocation *rel = reloc_.first_overlap(cur, end);
            uint64_t run_end = end;
            if (rel != nullptr && rel->lba <= cur) {
                run_end = std::min(end, rel->lba + rel->nsectors);
            } else if (rel != nullptr) {
                run_end = rel->lba;
                rel = nullptr;
            }
            uint32_t run_len = static_cast<uint32_t>(run_end - cur);
            PhysExtent sub = ext;
            sub.lba = cur;
            sub.nsectors = run_len;
            sub.pba = ext.pba + (cur - ext.lba);
            const size_t at_bytes =
                static_cast<size_t>(cur - lba) * kSectorSize;
            if (rel) {
                // Serve from the in-memory relocation cache (or the
                // metadata zone copy when not cached).
                uint64_t off_in_rel = cur - rel->lba;
                if (!rel->cached.empty()) {
                    g.put(IoBuf::copy_of(std::span(rel->cached).subspan(
                              off_in_rel * kSectorSize,
                              size_t{run_len} * kSectorSize)),
                          kNsPerUs, at_bytes);
                } else if (!is_marked_failed(rel->dev) &&
                           !devs_[rel->dev]->failed()) {
                    IoRequest rreq =
                        IoRequest::read(rel->md_pba + off_in_rel, run_len);
                    rreq.trace_req = treq;
                    rreq.trace_stage = "read.reloc";
                    rreq.cause = obs::Cause::kRelocation;
                    dev_submit(rel->dev, std::move(rreq),
                               [this, done = g.source(at_bytes),
                                rdev = rel->dev](IoResult r) {
                                   if (!r.status.is_ok())
                                       escalate_dev_error(rdev, r.status);
                                   done(r.status, std::move(r.data));
                               });
                } else {
                    g.put(Status(StatusCode::kIoError,
                                 "relocated data on failed device"),
                          kNsPerUs);
                }
            } else if (is_marked_failed(sub.dev)) {
                // Only the marked-failed member is skipped. One that
                // failed unnoticed is read like any other: its error
                // escalates and the read degrades.
                read_extent_degraded(sub, g.source(at_bytes));
            } else {
                IoRequest rreq = IoRequest::read(sub.pba, sub.nsectors);
                rreq.trace_req = treq;
                rreq.trace_stage = "read.data";
                rreq.cause = obs::Cause::kUserData;
                dev_submit(sub.dev, std::move(rreq),
                           extent_read_done(g, sub, at_bytes));
            }
            cur = run_end;
        }
    }
    g.seal();
}

IoCallback
RaiznVolume::extent_read_done(StripeGather &g, const PhysExtent &sub,
                              size_t at)
{
    const uint32_t slot = extent_reads_.acquire();
    extent_reads_[slot] = ExtentRead{g.source(at), sub};
    return [this, slot](IoResult r) {
        ExtentRead er = std::move(extent_reads_[slot]);
        extent_reads_.release(slot);
        const PhysExtent &sub = er.sub;
        if (!r.status.is_ok()) {
            if (escalate_dev_error(sub.dev, r.status)) {
                read_extent_degraded(sub, std::move(er.done));
                return;
            }
            er.done(r.status, {});
            return;
        }
        const LZone &lz = zones_[layout_->zone_of(sub.lba)];
        if (!r.data.empty() &&
            !lz.crc.verify(sub.lba - lz.start, r.data.data(), sub.nsectors)) {
            // Silent corruption: the payload disagrees with the CRC
            // catalog. Serve the read via reconstruction.
            stats_.crc_mismatches++;
            read_extent_degraded(sub, std::move(er.done));
            return;
        }
        er.done(r.status, std::move(r.data));
    };
}

void
RaiznVolume::read_extent_degraded(const PhysExtent &ext, DataCb cb)
{
    stats_.degraded_reads++;
    uint32_t zone = layout_->zone_of(ext.lba);
    uint64_t off = ext.lba - layout_->zone_start_lba(zone);
    uint64_t stripe = off / layout_->stripe_sectors();
    uint64_t in_stripe = off % layout_->stripe_sectors();
    int pos = static_cast<int>(in_stripe / cfg_.su_sectors);
    uint64_t lo = in_stripe % cfg_.su_sectors;
    reconstruct_stripe_unit(zone, stripe, pos, lo, lo + ext.nsectors,
                            obs::Cause::kParity, std::move(cb));
}

void
RaiznVolume::reconstruct_stripe_unit(uint32_t zone, uint64_t stripe,
                                     int pos, uint64_t lo, uint64_t hi,
                                     obs::Cause cause, DataCb cb)
{
    stats_.reconstructed_sectors += hi - lo;
    const uint32_t D = cfg_.data_units();
    const uint32_t su = cfg_.su_sectors;
    LZone &lz = zones_[zone];
    StripeGather::Spec spec;
    if (store_data_)
        spec.bytes = static_cast<size_t>(hi - lo) * kSectorSize;
    spec.cause = cause;
    spec.stage = "read.reconstruct";
    StripeGather g(this, spec, std::move(cb));
    // In-memory source: sectors [from, to) of a unit image.
    auto put_cached = [&](const uint8_t *img, uint64_t from, uint64_t to) {
        g.put(IoBuf::copy_of({img + from * kSectorSize,
                              (to - from) * kSectorSize}),
              kNsPerUs);
    };

    // Fast path: the stripe's data is still in its stripe buffer.
    if (!lz.buffers.empty() && store_data_) {
        StripeBuffer *buf =
            lz.buffers[stripe % cfg_.stripe_buffers_per_zone].get();
        if (buf->stripe_no() == stripe) {
            if (pos >= 0)
                put_cached(buf->unit_data(static_cast<uint32_t>(pos)), lo,
                           hi);
            else
                put_cached((buf->complete() ? buf->full_parity()
                                            : buf->prefix_parity())
                               .data(),
                           lo, hi);
            g.seal();
            return;
        }
    }

    // Which sources must be read: every live data unit of the stripe
    // plus the parity (complete stripe) or the logged partial parity.
    uint64_t zone_fill = lz.wp - lz.start;
    uint64_t stripe_end = (stripe + 1) * layout_->stripe_sectors();
    bool complete = zone_fill >= stripe_end ||
        lz.cond == raizn::ZoneState::kFull;

    // Surviving data units.
    uint64_t zs = layout_->zone_start_lba(zone);
    uint64_t stripe_base = stripe * layout_->stripe_sectors();
    // When reconstructing a data unit of an incomplete stripe, only the
    // prefix covered by the partial-parity records contributed to the
    // accumulator: after a crash the durable pp log can trail the
    // recovered zone fill, and XOR-ing a unit beyond that coverage
    // would fold in data the parity never saw.
    uint64_t pp_cov = 0;
    if (!complete && pos >= 0) {
        auto it = pp_index_.find(zs_key(zone, stripe));
        if (it != pp_index_.end()) {
            for (const PpRecord &rec : it->second)
                pp_cov = std::max(pp_cov, rec.end_lba - zs);
        }
    }
    for (uint32_t k = 0; k < D; ++k) {
        if (static_cast<int>(k) == pos)
            continue;
        uint32_t dev = layout_->data_dev(zone, stripe, k);
        // How much of unit k exists (zero beyond the zone fill)?
        uint64_t unit_start = stripe_base + static_cast<uint64_t>(k) * su;
        uint64_t fill_limit = pos >= 0 ? std::min(zone_fill, pp_cov)
                                       : zone_fill;
        if (unit_start + lo >= fill_limit && !complete)
            continue; // unit not written yet: contributes zeros
        uint64_t unit_hi = hi;
        if (!complete) {
            uint64_t avail = fill_limit > unit_start
                ? std::min<uint64_t>(su, fill_limit - unit_start)
                : 0;
            unit_hi = std::min(hi, std::max(lo, avail));
            if (unit_hi <= lo)
                continue;
        }
        uint64_t read_lba = zs + unit_start + lo;
        // Relocated? (burned slot redirected to metadata zone)
        const Relocation *rel = reloc_.find(read_lba);
        if (rel && !rel->cached.empty()) {
            uint64_t off_in_rel = read_lba - rel->lba;
            put_cached(rel->cached.data(), off_in_rel,
                       off_in_rel + (unit_hi - lo));
        } else if (!is_marked_failed(dev) && !devs_[dev]->failed()) {
            g.read(dev, layout_->slot_pba(zone, stripe) + lo,
                    static_cast<uint32_t>(unit_hi - lo));
        } else {
            g.put(Status(StatusCode::kIoError, "two devices unavailable"),
                   kNsPerUs);
        }
    }

    if (pos >= 0) {
        // Reconstructing a data unit: fold in the parity.
        if (complete) {
            uint32_t pdev = layout_->parity_dev(zone, stripe);
            auto prel = parity_reloc_.find(zs_key(zone, stripe));
            if (prel != parity_reloc_.end() &&
                !prel->second.cached.empty()) {
                put_cached(prel->second.cached.data(), lo, hi);
            } else if (!is_marked_failed(pdev) && !devs_[pdev]->failed()) {
                g.read(pdev, layout_->slot_pba(zone, stripe) + lo,
                        static_cast<uint32_t>(hi - lo));
            } else {
                g.put(Status(StatusCode::kIoError, "parity unavailable"),
                       kNsPerUs);
            }
        } else {
            // Incomplete stripe: apply the cumulative partial parity
            // from the in-memory index (§5.1).
            auto it = pp_index_.find(zs_key(zone, stripe));
            if (it != pp_index_.end() && store_data_) {
                std::vector<uint8_t> parity(
                    static_cast<size_t>(su) * kSectorSize, 0);
                for (const PpRecord &rec : it->second) {
                    if (rec.delta.empty())
                        continue;
                    xor_bytes(parity.data() +
                                  rec.lo_sector * kSectorSize,
                              rec.delta.data(), rec.delta.size());
                }
                put_cached(parity.data(), lo, hi);
            } else if (store_data_) {
                g.put(Status(StatusCode::kIoError,
                              "no partial parity for stripe"),
                       kNsPerUs);
            }
        }
    }
    g.seal();
}

// ---- Fault management --------------------------------------------------

Status
RaiznVolume::write_refusal() const
{
    return Status(StatusCode::kReadOnly, "volume is read-only");
}

void
RaiznVolume::on_health_event(uint32_t dev, HealthEvent ev)
{
    switch (ev) {
    case HealthEvent::kSuspect:
        stats_.health_suspects++;
        LOG_INFO("device %u health: suspect", dev);
        break;
    case HealthEvent::kFailSlow:
        stats_.fail_slow_detected++;
        LOG_WARN("device %u health: fail-slow (latency EWMA far above "
                 "peers)",
                 dev);
        break;
    case HealthEvent::kFailed:
        break;
    }
    ZonedArray::on_health_event(dev, ev);
}

void
RaiznVolume::on_spare_promoted(uint32_t dev)
{
    md_->replace_device(dev, devs_[dev]);
}

// ---- Metadata GC snapshots ---------------------------------------------

std::vector<MdAppend>
RaiznVolume::snapshot_for_gc(uint32_t dev, MdZoneRole role)
{
    std::vector<MdAppend> out;
    if (role == MdZoneRole::kParityLog) {
        // Partial parity is recomputed by XOR'ing the stripe buffer of
        // each open logical zone (§4.3).
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            LZone &lz = zones_[z];
            if (!is_open(lz.cond) || lz.buffers.empty())
                continue;
            uint64_t fill = lz.wp - lz.start;
            if (fill == 0 || fill % layout_->stripe_sectors() == 0)
                continue;
            uint64_t stripe = fill / layout_->stripe_sectors();
            if (layout_->parity_dev(z, stripe) != dev)
                continue;
            StripeBuffer *buf =
                lz.buffers[stripe % cfg_.stripe_buffers_per_zone].get();
            if (buf->stripe_no() != stripe)
                continue;
            uint64_t in_stripe = fill % layout_->stripe_sectors();
            std::vector<uint8_t> parity = buf->prefix_parity();
            uint64_t sectors =
                std::min<uint64_t>(cfg_.su_sectors, in_stripe);
            if (!parity.empty())
                parity.resize(sectors * kSectorSize);
            MdAppend app = make_pp_append(
                z, stripe, lz.start + stripe * layout_->stripe_sectors(),
                lz.start + fill, 0, sectors, std::move(parity));
            out.push_back(std::move(app));
        }
        return out;
    }

    // General zone: superblock, generation counters, relocations,
    // nothing for reset logs (completed resets need no checkpoint;
    // pending ones re-log themselves).
    Superblock copy = sb_;
    copy.dev_id = dev;
    MdAppend sb_app;
    sb_app.header.type = MdType::kSuperblock;
    sb_app.inline_data = copy.encode();
    out.push_back(std::move(sb_app));

    // An in-flight device rebuild keeps its progress record alive
    // across metadata GC — dropping it would turn a crash during GC
    // into an unresumable rebuild.
    const int target = rebuild_target();
    if (target >= 0 && dev != static_cast<uint32_t>(target)) {
        MdAppend app;
        app.header.type = MdType::kRebuildCheckpoint;
        app.header.generation = gen_update_seq_++;
        app.inline_data = encode_current_rebuild_checkpoint(
            static_cast<uint32_t>(target),
            RebuildCheckpointRecord::kInProgress, ~0u);
        out.push_back(std::move(app));
    }

    for (uint32_t b = 0; b < gen_.num_blocks(); ++b) {
        MdAppend app;
        app.header = gen_.block_header(b, gen_update_seq_++);
        app.inline_data = gen_.encode_block(b);
        out.push_back(std::move(app));
    }

    for (const Relocation *rel : reloc_.all()) {
        if (rel->dev != dev)
            continue;
        MdAppend app;
        app.header.type = MdType::kRelocatedSu;
        app.header.start_lba = rel->lba;
        app.header.end_lba = rel->lba + rel->nsectors;
        app.header.generation = gen_.get(layout_->zone_of(rel->lba));
        app.inline_data.assign(8, 0);
        app.set_payload(rel->nsectors, metered_copy(rel->cached));
        out.push_back(std::move(app));
    }
    for (const auto &[key, rel] : parity_reloc_) {
        if (rel.dev != dev)
            continue;
        MdAppend app;
        app.header.type = MdType::kRelocatedSu;
        app.header.start_lba = key;
        app.header.end_lba = key;
        app.header.generation =
            gen_.get(static_cast<uint32_t>(key >> 32));
        app.inline_data.assign(8, 0);
        app.inline_data[4] = 1;
        app.set_payload(cfg_.su_sectors, metered_copy(rel.cached));
        out.push_back(std::move(app));
    }
    return out;
}

bool
RaiznVolume::stripe_displaced(uint32_t zone, uint64_t stripe) const
{
    if (parity_reloc_.count(zs_key(zone, stripe)))
        return true;
    // A burned physical range overlapping the stripe's slot means later
    // rewrites of the slot were redirected into metadata zones.
    uint64_t slot = layout_->slot_pba(zone, stripe);
    for (uint32_t d = 0; d < layout_->num_devices(); ++d) {
        if (slot < burned_.burned_end(d, zone))
            return true;
    }
    uint64_t lo = layout_->zone_start_lba(zone) +
        stripe * layout_->stripe_sectors();
    return reloc_.first_overlap(lo, lo + layout_->stripe_sectors()) !=
        nullptr;
}

RaiznVolume::MemoryFootprint
RaiznVolume::memory_footprint() const
{
    MemoryFootprint fp{};
    fp.gen_counters = gen_.memory_bytes();
    fp.superblock = kSectorSize;
    for (const LZone &lz : zones_) {
        for (const auto &buf : lz.buffers)
            fp.stripe_buffers += buf->memory_bytes();
        fp.persistence_bitmaps += lz.pbm.memory_bytes();
    }
    // 64 bytes per logical zone descriptor plus 64 per physical zone
    // per device (Table 1).
    fp.zone_descriptors = zones_.size() * 64 +
        static_cast<size_t>(layout_->phys_geometry().nzones) *
            devs_.size() * 64;
    for (const Relocation *rel : reloc_.all())
        fp.relocations += sizeof(Relocation) + rel->cached.size();
    return fp;
}

} // namespace raizn
