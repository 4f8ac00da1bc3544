#include "mdraid/md_volume.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "array/stripe_gather.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "raizn/stripe_buffer.h" // parity_byte_range
#include "sim/event_loop.h"
#include "zns/conv_device.h"

namespace raizn {

struct MdVolume::WriteCtx {
    uint32_t pending = 0;
    bool issued_all = false;
    Status status;
    IoCallback cb;
    uint64_t end_lba = 0;
    uint64_t req_id = 0; ///< trace correlation id (0 when detached)
};

MdVolume::MdVolume(EventLoop *loop, std::vector<BlockDevice *> devs,
                   MdVolumeConfig cfg)
    : ZonedArray(loop, std::move(devs),
                 StatCells{&stats_.io_retries, &stats_.io_timeouts,
                           &stats_.dev_errors, &stats_.spares_promoted,
                           &stats_.auto_failovers,
                           &stats_.resync_throttle_stalls}),
      cfg_(cfg)
{
    assert(devs_.size() >= 3);
    uint32_t D = static_cast<uint32_t>(devs_.size()) - 1;
    stripe_sectors_ = static_cast<uint64_t>(D) * cfg_.chunk_sectors;
    uint64_t dev_sectors = devs_[0]->geometry().nsectors;
    // Round down to whole stripes.
    uint64_t stripes = dev_sectors / cfg_.chunk_sectors;
    capacity_ = stripes * stripe_sectors_;
    store_data_ = true;
    for (BlockDevice *d : devs_)
        store_data_ &= d->data_mode() == DataMode::kStore;
    cache_ = std::make_unique<StripeCache>(
        stripe_sectors_ * kSectorSize, cfg_.stripe_cache_bytes,
        store_data_);
}

MdVolume::~MdVolume() = default;

void
MdVolume::link_stats_hook(obs::MetricsRegistry &reg)
{
    obs::link_stats(reg, "mdraid", stats_);
}

void
MdVolume::install_timeline(obs::Timeline *tl)
{
    if (tl == nullptr || reg_ == nullptr)
        return;
    obs::Gauge *cache = reg_->gauge("mdraid.gauge.cache_stripes");
    struct FtlGauges {
        obs::Gauge *free_blocks;
        obs::Gauge *op_used_pct;
        obs::Gauge *gc_active;
    };
    std::vector<FtlGauges> ftl;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        std::string prefix = strprintf("mdraid.dev%u.ftl", d);
        ftl.push_back({reg_->gauge(prefix + ".free_blocks"),
                       reg_->gauge(prefix + ".op_used_pct"),
                       reg_->gauge(prefix + ".gc_active")});
    }
    tl->add_probe([this, cache, ftl = std::move(ftl)] {
        cache->set(cache_->size());
        // Re-resolved per sample: promote_spare swaps pointers, and a
        // member may be a decorator that is not a ConvDevice.
        for (uint32_t d = 0; d < devs_.size(); ++d) {
            auto *cd = dynamic_cast<ConvDevice *>(devs_[d]);
            if (cd == nullptr)
                continue;
            ftl[d].free_blocks->set(cd->ftl().free_blocks());
            ftl[d].op_used_pct->set(cd->ftl().op_used_pct());
            ftl[d].gc_active->set(cd->ftl().gc_active() ? 1 : 0);
        }
    }, this);
}

uint32_t
MdVolume::parity_dev(uint64_t stripe) const
{
    // Left-symmetric rotation, as md's default raid5 layout.
    uint32_t n = static_cast<uint32_t>(devs_.size());
    return static_cast<uint32_t>((n - 1 - stripe % n) % n);
}

uint32_t
MdVolume::data_dev(uint64_t stripe, uint32_t k) const
{
    uint32_t n = static_cast<uint32_t>(devs_.size());
    return (parity_dev(stripe) + 1 + k) % n;
}

int
MdVolume::data_pos_of_dev(uint64_t stripe, uint32_t dev) const
{
    uint32_t n = static_cast<uint32_t>(devs_.size());
    uint32_t p = parity_dev(stripe);
    if (dev == p)
        return -1;
    return static_cast<int>((dev + n - p - 1) % n);
}

uint64_t
MdVolume::chunk_pba(uint64_t stripe) const
{
    return stripe * cfg_.chunk_sectors;
}

bool
MdVolume::member_down(uint32_t dev)
{
    if (is_marked_failed(dev))
        return true;
    if (!devs_[dev]->failed())
        return false;
    // A member that died unnoticed fails on sight, as an offline
    // completion would fail it; that also promotes a hot spare.
    escalate_dev_error(dev, Status(StatusCode::kOffline, "member dead"));
    return true;
}

// ---- Read path --------------------------------------------------------

void
MdVolume::read_chunk(uint64_t stripe, uint32_t k, uint64_t lo,
                     uint64_t hi, DataCb cb, const char *trace_stage,
                     uint64_t treq, obs::Cause cause)
{
    uint32_t dev = data_dev(stripe, k);
    if (member_down(dev)) {
        reconstruct_chunk(stripe, static_cast<int>(k), lo, hi,
                          std::move(cb));
        return;
    }
    IoRequest rreq = IoRequest::read(chunk_pba(stripe) + lo,
                                     static_cast<uint32_t>(hi - lo));
    rreq.trace_req = treq;
    rreq.trace_stage = trace_stage;
    rreq.cause = cause;
    dev_submit(dev, std::move(rreq),
               [this, stripe, k, lo, hi, dev,
                cb = std::move(cb)](IoResult r) mutable {
                   if (!r.status.is_ok() &&
                       escalate_dev_error(dev, r.status)) {
                       // Member failed after retries: serve the read
                       // from the surviving devices instead.
                       reconstruct_chunk(stripe, static_cast<int>(k),
                                         lo, hi, std::move(cb));
                       return;
                   }
                   cb(r.status, std::move(r.data));
               });
}

void
MdVolume::reconstruct_chunk(uint64_t stripe, int pos, uint64_t lo,
                            uint64_t hi, DataCb cb)
{
    stats_.degraded_reads++;
    StripeGather::Spec spec;
    if (store_data_)
        spec.bytes = static_cast<size_t>(hi - lo) * kSectorSize;
    // Peer reads that exist only to rebuild a lost chunk are
    // redundancy traffic, not user reads.
    spec.cause = obs::Cause::kParity;
    StripeGather g(this, spec, std::move(cb));
    auto survivor = [&](uint32_t dev) {
        if (member_down(dev))
            g.fail(Status(StatusCode::kIoError, "double failure"));
        else
            g.read(dev, chunk_pba(stripe) + lo,
                    static_cast<uint32_t>(hi - lo));
    };
    const uint32_t D = static_cast<uint32_t>(devs_.size()) - 1;
    for (uint32_t k = 0; k < D; ++k)
        if (static_cast<int>(k) != pos)
            survivor(data_dev(stripe, k));
    if (pos >= 0)
        survivor(parity_dev(stripe));
    g.seal();
}

void
MdVolume::read(uint64_t lba, uint32_t nsectors, IoCallback cb)
{
    PROF_SCOPE("md.read");
    if (nsectors == 0 || lba + nsectors > capacity_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status = Status(StatusCode::kInvalidArgument, "read range");
            cb(std::move(r));
        });
        return;
    }
    stats_.logical_reads++;
    stats_.sectors_read += nsectors;
    uint64_t treq = 0;
    StripeGather::Spec spec;
    spec.fold = StripeGather::Fold::kPlace;
    if (store_data_)
        spec.bytes = static_cast<size_t>(nsectors) * kSectorSize;
    cb = observe_io(false, nsectors, "md.read", std::move(cb), &treq);
    StripeGather g(this, spec, std::move(cb));
    uint64_t cur = lba;
    uint64_t end = lba + nsectors;
    while (cur < end) {
        uint64_t stripe = cur / stripe_sectors_;
        uint64_t in_stripe = cur % stripe_sectors_;
        uint32_t k = static_cast<uint32_t>(in_stripe / cfg_.chunk_sectors);
        uint64_t lo = in_stripe % cfg_.chunk_sectors;
        uint64_t len = std::min<uint64_t>(end - cur,
                                          cfg_.chunk_sectors - lo);
        read_chunk(stripe, k, lo, lo + len,
                   g.source(static_cast<size_t>(cur - lba) * kSectorSize),
                   "md.read_chunk", treq);
        cur += len;
    }
    g.seal();
}

// ---- Write path -------------------------------------------------------

void
MdVolume::submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                       WriteFlags flags, IoCallback cb)
{
    (void)flags;
    if (nsectors == 0 || lba + nsectors > capacity_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status = Status(StatusCode::kInvalidArgument, "write range");
            cb(std::move(r));
        });
        return;
    }
    if (refuse_write(cb))
        return;
    stats_.logical_writes++;
    stats_.sectors_written += nsectors;

    auto ctx = std::make_shared<WriteCtx>();
    ctx->cb = observe_io(true, nsectors, "md.write", std::move(cb),
                         &ctx->req_id);
    ctx->end_lba = lba + nsectors;

    uint64_t cur = lba;
    uint64_t end = lba + nsectors;
    while (cur < end) {
        uint64_t stripe = cur / stripe_sectors_;
        uint64_t lo = cur % stripe_sectors_;
        uint64_t hi = std::min<uint64_t>(end - stripe * stripe_sectors_,
                                         stripe_sectors_);
        // Each stripe holds a slice of the buffer: prereads complete
        // asynchronously, and the slice keeps the bytes alive.
        IoBuf slice = data.slice(
            (cur - lba) * kSectorSize,
            (stripe * stripe_sectors_ + hi - cur) * kSectorSize);
        process_stripe_write(stripe, lo, hi, std::move(slice), ctx);
        cur = stripe * stripe_sectors_ + hi;
    }
    ctx->issued_all = true;
    if (ctx->pending == 0) {
        loop_->schedule_after(1, [ctx] {
            IoResult r;
            r.status = ctx->status;
            auto cb2 = std::move(ctx->cb);
            cb2(std::move(r));
        });
    }
}

void
MdVolume::process_stripe_write(uint64_t stripe, uint64_t lo, uint64_t hi,
                               IoBuf data,
                               std::shared_ptr<WriteCtx> ctx)
{
    PROF_SCOPE("md.write");
    StripeCache::Entry *entry =
        cache_->get_or_create(stripe, stripe_sectors_);
    // Apply the new data to the cache image.
    if (store_data_ && !data.empty()) {
        std::memcpy(entry->data.data() + lo * kSectorSize, data.data(),
                    static_cast<size_t>(hi - lo) * kSectorSize);
        prof::count_copy((hi - lo) * kSectorSize);
    }
    for (uint64_t s = lo; s < hi; ++s)
        entry->valid[s] = true;

    bool full = (lo == 0 && hi == stripe_sectors_);
    if (full) {
        stats_.full_stripe_writes++;
        std::vector<uint8_t> parity;
        if (store_data_) {
            prof::count_alloc(
                static_cast<uint64_t>(cfg_.chunk_sectors) * kSectorSize);
            parity.assign(
                static_cast<size_t>(cfg_.chunk_sectors) * kSectorSize, 0);
            uint32_t D = static_cast<uint32_t>(devs_.size()) - 1;
            for (uint32_t k = 0; k < D; ++k) {
                xor_bytes(parity.data(),
                          entry->data.data() +
                              static_cast<uint64_t>(k) *
                                  cfg_.chunk_sectors * kSectorSize,
                          parity.size());
            }
        }
        write_chunks(stripe, lo, hi, data, IoBuf(std::move(parity)), ctx);
        return;
    }

    stats_.partial_stripe_writes++;
    if (entry->all_valid()) {
        // Stripe cache hit: parity recomputed from the cached stripe,
        // no preread (md's stripe-cache benefit).
        std::vector<uint8_t> parity;
        if (store_data_) {
            prof::count_alloc(
                static_cast<uint64_t>(cfg_.chunk_sectors) * kSectorSize);
            parity.assign(
                static_cast<size_t>(cfg_.chunk_sectors) * kSectorSize, 0);
            uint32_t D = static_cast<uint32_t>(devs_.size()) - 1;
            for (uint32_t k = 0; k < D; ++k) {
                xor_bytes(parity.data(),
                          entry->data.data() +
                              static_cast<uint64_t>(k) *
                                  cfg_.chunk_sectors * kSectorSize,
                          parity.size());
            }
        }
        write_chunks(stripe, lo, hi, data, IoBuf(std::move(parity)), ctx);
        return;
    }

    // Read-modify-write: preread the rest of the stripe, then compute
    // parity over the merged image. (md prereads either the untouched
    // chunks or old-data+old-parity, whichever is fewer IOs; reading
    // the complement is equivalent work for our 5-device arrays.)
    struct Rmw {
        uint32_t pending = 0;
        bool issued_all = false;
        std::vector<uint8_t> image; ///< merged stripe data
        Status status;
    };
    auto rmw = std::make_shared<Rmw>();
    if (store_data_) {
        rmw->image.assign(stripe_sectors_ * kSectorSize, 0);
        if (!data.empty()) {
            std::memcpy(rmw->image.data() + lo * kSectorSize,
                        data.data(),
                        static_cast<size_t>(hi - lo) * kSectorSize);
        }
    }
    ctx->pending++; // holds the write until prereads finish

    auto finish_rmw = [this, stripe, lo, hi, data, ctx, rmw]() {
        std::vector<uint8_t> parity;
        if (store_data_) {
            prof::count_alloc(
                static_cast<uint64_t>(cfg_.chunk_sectors) * kSectorSize);
            parity.assign(
                static_cast<size_t>(cfg_.chunk_sectors) * kSectorSize, 0);
            uint32_t D = static_cast<uint32_t>(devs_.size()) - 1;
            for (uint32_t k = 0; k < D; ++k) {
                xor_bytes(parity.data(),
                          rmw->image.data() +
                              static_cast<uint64_t>(k) *
                                  cfg_.chunk_sectors * kSectorSize,
                          parity.size());
            }
            // Refresh the cache with the full image.
            StripeCache::Entry *e =
                cache_->get_or_create(stripe, stripe_sectors_);
            e->data = rmw->image;
            std::fill(e->valid.begin(), e->valid.end(), true);
        }
        if (!rmw->status.is_ok() && ctx->status.is_ok())
            ctx->status = rmw->status;
        write_chunks(stripe, lo, hi, data, IoBuf(std::move(parity)), ctx);
        // Release the preread hold.
        if (--ctx->pending == 0 && ctx->issued_all) {
            IoResult r;
            r.status = ctx->status;
            auto cb2 = std::move(ctx->cb);
            cb2(std::move(r));
        }
    };

    // Preread every invalid sector range outside [lo, hi).
    auto one_done = [this, rmw, finish_rmw](uint64_t off, Status s,
                                            const IoBuf &d) {
        if (!s.is_ok() && rmw->status.is_ok())
            rmw->status = s;
        if (!d.empty() && !rmw->image.empty()) {
            std::memcpy(rmw->image.data() + off * kSectorSize, d.data(),
                        d.size());
        }
        if (--rmw->pending == 0 && rmw->issued_all)
            finish_rmw();
        (void)this;
    };

    StripeCache::Entry *e = entry;
    uint64_t s = 0;
    while (s < stripe_sectors_) {
        if (e->valid[s]) {
            if (store_data_ && !(s >= lo && s < hi)) {
                std::memcpy(rmw->image.data() + s * kSectorSize,
                            e->data.data() + s * kSectorSize,
                            kSectorSize);
            }
            s++;
            continue;
        }
        // Extend an invalid run within one chunk.
        uint32_t k = static_cast<uint32_t>(s / cfg_.chunk_sectors);
        uint64_t run_end = std::min<uint64_t>(
            (k + 1ull) * cfg_.chunk_sectors, stripe_sectors_);
        uint64_t r = s;
        while (r < run_end && !e->valid[r])
            r++;
        uint64_t off = s;
        uint64_t in_chunk = s % cfg_.chunk_sectors;
        rmw->pending++;
        stats_.rmw_reads++;
        read_chunk(stripe, k, in_chunk, in_chunk + (r - s),
                   [one_done, off](Status st, IoBuf d) {
                       one_done(off, st, d);
                   },
                   "md.rmw_read", ctx->req_id, obs::Cause::kParity);
        // Mark as valid: the cache image will be refreshed on finish.
        for (uint64_t i = s; i < r; ++i)
            e->valid[i] = true;
        s = r;
    }
    rmw->issued_all = true;
    if (rmw->pending == 0)
        finish_rmw();
}

void
MdVolume::write_chunks(uint64_t stripe, uint64_t lo, uint64_t hi,
                       const IoBuf &data, const IoBuf &parity,
                       std::shared_ptr<WriteCtx> ctx)
{
    auto chunk_done = [this, ctx](uint32_t dev, IoResult r) {
        if (!r.status.is_ok()) {
            // Persistent write error: md kicks the member and the
            // write completes degraded rather than failing.
            if (escalate_dev_error(dev, r.status))
                r.status = Status::ok();
        }
        if (!r.status.is_ok() && ctx->status.is_ok())
            ctx->status = r.status;
        if (--ctx->pending == 0 && ctx->issued_all) {
            IoResult out;
            out.status = ctx->status;
            auto cb2 = std::move(ctx->cb);
            cb2(std::move(out));
        }
    };

    // Data chunks.
    uint64_t cur = lo;
    while (cur < hi) {
        uint32_t k = static_cast<uint32_t>(cur / cfg_.chunk_sectors);
        uint64_t in_chunk = cur % cfg_.chunk_sectors;
        uint64_t len = std::min<uint64_t>(hi - cur,
                                          cfg_.chunk_sectors - in_chunk);
        uint32_t dev = data_dev(stripe, k);
        if (!member_down(dev)) {
            IoRequest req;
            req.op = IoOp::kWrite;
            req.slba = chunk_pba(stripe) + in_chunk;
            req.nsectors = static_cast<uint32_t>(len);
            if (store_data_)
                req.data = data.slice((cur - lo) * kSectorSize,
                                      static_cast<size_t>(len) * kSectorSize);
            req.trace_req = ctx->req_id;
            req.trace_stage = "md.chunk_write";
            req.cause = obs::Cause::kUserData;
            ctx->pending++;
            dev_submit(dev, std::move(req),
                       [chunk_done, dev](IoResult r) {
                           chunk_done(dev, std::move(r));
                       });
        }
        cur += len;
    }

    // Parity chunk: only the affected byte range needs rewriting.
    uint32_t pdev = parity_dev(stripe);
    if (!member_down(pdev)) {
        uint64_t plo, phi;
        parity_byte_range(lo, hi, cfg_.chunk_sectors, &plo, &phi);
        uint64_t plo_s = plo / kSectorSize;
        uint64_t phi_s = div_ceil(phi, kSectorSize);
        IoRequest req;
        req.op = IoOp::kWrite;
        req.slba = chunk_pba(stripe) + plo_s;
        req.nsectors = static_cast<uint32_t>(phi_s - plo_s);
        if (store_data_)
            req.data = parity.slice(plo_s * kSectorSize,
                                    (phi_s - plo_s) * kSectorSize);
        req.trace_req = ctx->req_id;
        req.trace_stage = "md.parity";
        req.cause = obs::Cause::kParity;
        ctx->pending++;
        dev_submit(pdev, std::move(req),
                   [chunk_done, pdev](IoResult r) {
                       chunk_done(pdev, std::move(r));
                   });
    }
}

void
MdVolume::flush(IoCallback cb)
{
    IoRequest freq = IoRequest::flush();
    freq.cause = obs::Cause::kUserData;
    fan_out(freq, std::move(cb));
}

} // namespace raizn
