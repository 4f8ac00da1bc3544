#include "mdraid/md_volume.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/logging.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/prof/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "raizn/stripe_buffer.h" // xor_bytes, parity_byte_range
#include "sim/event_loop.h"
#include "zns/conv_device.h"

namespace raizn {

std::string
MdVolumeStats::dump() const
{
    return obs::render_stats(*this);
}

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
    });
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

// ---- Read path --------------------------------------------------------

void
MdVolume::read_chunk(uint64_t stripe, uint32_t k, uint64_t lo,
                     uint64_t hi,
                     std::function<void(Status, std::vector<uint8_t>)> cb,
                     const char *trace_stage, uint64_t treq,
                     obs::Cause cause)
{
    uint32_t dev = data_dev(stripe, k);
    if (static_cast<int>(dev) == failed_dev_ || devs_[dev]->failed()) {
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
MdVolume::reconstruct_chunk(
    uint64_t stripe, int pos, uint64_t lo, uint64_t hi,
    std::function<void(Status, std::vector<uint8_t>)> cb)
{
    stats_.degraded_reads++;
    uint32_t D = static_cast<uint32_t>(devs_.size()) - 1;
    struct Ctx {
        uint32_t pending = 0;
        bool issued_all = false;
        Status status;
        std::vector<uint8_t> acc;
        std::function<void(Status, std::vector<uint8_t>)> cb;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->cb = std::move(cb);
    if (store_data_)
        ctx->acc.assign(static_cast<size_t>(hi - lo) * kSectorSize, 0);
    auto one = [this, ctx](Status s, const std::vector<uint8_t> &d) {
        if (!s.is_ok() && ctx->status.is_ok())
            ctx->status = s;
        if (!d.empty() && store_data_)
            xor_bytes(ctx->acc.data(), d.data(),
                      std::min(d.size(), ctx->acc.size()));
        if (--ctx->pending == 0 && ctx->issued_all) {
            auto cb2 = std::move(ctx->cb);
            cb2(ctx->status, std::move(ctx->acc));
        }
    };
    auto read_dev = [&](uint32_t dev) {
        ctx->pending++;
        IoRequest rreq = IoRequest::read(chunk_pba(stripe) + lo,
                                         static_cast<uint32_t>(hi - lo));
        // Peer reads that exist only to rebuild a lost chunk are
        // redundancy traffic, not user reads.
        rreq.cause = obs::Cause::kParity;
        dev_submit(dev, std::move(rreq),
                   [this, one, dev](IoResult r) {
                       if (!r.status.is_ok())
                           escalate_dev_error(dev, r.status);
                       one(r.status, r.data);
                   });
    };
    for (uint32_t k = 0; k < D; ++k) {
        if (static_cast<int>(k) == pos)
            continue;
        uint32_t dev = data_dev(stripe, k);
        if (static_cast<int>(dev) == failed_dev_ ||
            devs_[dev]->failed()) {
            ctx->status = Status(StatusCode::kIoError, "double failure");
            continue;
        }
        read_dev(dev);
    }
    if (pos >= 0) {
        uint32_t pdev = parity_dev(stripe);
        if (static_cast<int>(pdev) == failed_dev_ ||
            devs_[pdev]->failed()) {
            ctx->status = Status(StatusCode::kIoError, "double failure");
        } else {
            read_dev(pdev);
        }
    }
    ctx->issued_all = true;
    if (ctx->pending == 0) {
        auto cb2 = std::move(ctx->cb);
        loop_->schedule_after(1, [cb2 = std::move(cb2), ctx]() mutable {
            cb2(ctx->status, std::move(ctx->acc));
        });
    }
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
    if (ledger_ != nullptr) {
        cb = [this, nsectors, inner = std::move(cb)](IoResult r) {
            if (r.status.is_ok())
                ledger_->note_user_read(nsectors);
            inner(std::move(r));
        };
    }

    uint64_t treq = 0;
    if (trace_ != nullptr || read_lat_ != nullptr) {
        uint64_t token = 0;
        if (trace_ != nullptr) {
            treq = trace_->next_request_id();
            token = trace_->begin_span("md.read", treq,
                                       obs::kTrackRequest, loop_->now());
        }
        Tick t0 = loop_->now();
        cb = [this, token, t0, inner = std::move(cb)](IoResult r) {
            Tick now = loop_->now();
            if (trace_ != nullptr && token != 0)
                trace_->end_span(token, now);
            if (read_lat_ != nullptr)
                read_lat_->record(now - t0);
            inner(std::move(r));
        };
    }

    struct Ctx {
        uint32_t pending = 0;
        bool issued_all = false;
        Status status;
        std::vector<uint8_t> out;
        IoCallback cb;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->cb = std::move(cb);
    if (store_data_)
        ctx->out.assign(static_cast<size_t>(nsectors) * kSectorSize, 0);

    uint64_t cur = lba;
    uint64_t end = lba + nsectors;
    while (cur < end) {
        uint64_t stripe = cur / stripe_sectors_;
        uint64_t in_stripe = cur % stripe_sectors_;
        uint32_t k = static_cast<uint32_t>(in_stripe / cfg_.chunk_sectors);
        uint64_t lo = in_stripe % cfg_.chunk_sectors;
        uint64_t len = std::min<uint64_t>(end - cur,
                                          cfg_.chunk_sectors - lo);
        uint64_t out_off = (cur - lba) * kSectorSize;
        ctx->pending++;
        read_chunk(stripe, k, lo, lo + len,
                   [this, ctx, out_off](Status s,
                                        std::vector<uint8_t> data) {
                       if (!s.is_ok() && ctx->status.is_ok())
                           ctx->status = s;
                       if (!data.empty() && !ctx->out.empty()) {
                           std::memcpy(ctx->out.data() + out_off,
                                       data.data(),
                                       std::min(data.size(),
                                                ctx->out.size() -
                                                    out_off));
                       }
                       if (--ctx->pending == 0 && ctx->issued_all) {
                           IoResult r;
                           r.status = ctx->status;
                           r.data = std::move(ctx->out);
                           auto cb2 = std::move(ctx->cb);
                           cb2(std::move(r));
                       }
                       (void)this;
                   },
                   "md.read_chunk", treq);
        cur += len;
    }
    ctx->issued_all = true;
    if (ctx->pending == 0) {
        loop_->schedule_after(1, [ctx] {
            IoResult r;
            r.status = ctx->status;
            r.data = std::move(ctx->out);
            auto cb2 = std::move(ctx->cb);
            cb2(std::move(r));
        });
    }
}

// ---- Write path -------------------------------------------------------

void
MdVolume::write(uint64_t lba, std::vector<uint8_t> data, WriteFlags flags,
                IoCallback cb)
{
    (void)flags;
    uint32_t nsectors = static_cast<uint32_t>(data.size() / kSectorSize);
    write_impl(lba, std::move(data), nsectors, std::move(cb));
}

void
MdVolume::write_len(uint64_t lba, uint32_t nsectors, WriteFlags flags,
                    IoCallback cb)
{
    (void)flags;
    write_impl(lba, {}, nsectors, std::move(cb));
}

void
MdVolume::write_impl(uint64_t lba, std::vector<uint8_t> data,
                     uint32_t nsectors, IoCallback cb)
{
    if (nsectors == 0 || lba + nsectors > capacity_) {
        loop_->schedule_after(1, [cb = std::move(cb)] {
            IoResult r;
            r.status = Status(StatusCode::kInvalidArgument, "write range");
            cb(std::move(r));
        });
        return;
    }
    stats_.logical_writes++;
    stats_.sectors_written += nsectors;

    auto ctx = std::make_shared<WriteCtx>();
    ctx->cb = std::move(cb);
    ctx->end_lba = lba + nsectors;
    if (ledger_ != nullptr) {
        ctx->cb = [this, nsectors, inner = std::move(ctx->cb)](IoResult r) {
            if (r.status.is_ok())
                ledger_->note_user_write(nsectors);
            inner(std::move(r));
        };
    }
    if (trace_ != nullptr || write_lat_ != nullptr) {
        uint64_t token = 0;
        if (trace_ != nullptr) {
            ctx->req_id = trace_->next_request_id();
            token = trace_->begin_span("md.write", ctx->req_id,
                                       obs::kTrackRequest, loop_->now());
        }
        Tick t0 = loop_->now();
        ctx->cb = [this, token, t0,
                   inner = std::move(ctx->cb)](IoResult r) {
            Tick now = loop_->now();
            if (trace_ != nullptr && token != 0)
                trace_->end_span(token, now);
            if (write_lat_ != nullptr)
                write_lat_->record(now - t0);
            inner(std::move(r));
        };
    }

    uint64_t cur = lba;
    uint64_t end = lba + nsectors;
    while (cur < end) {
        uint64_t stripe = cur / stripe_sectors_;
        uint64_t lo = cur % stripe_sectors_;
        uint64_t hi = std::min<uint64_t>(end - stripe * stripe_sectors_,
                                         stripe_sectors_);
        // Each stripe owns a copy of its slice: prereads complete
        // asynchronously, after this request's buffer is gone.
        auto slice = std::make_shared<std::vector<uint8_t>>();
        if (!data.empty()) {
            const uint8_t *p = data.data() + (cur - lba) * kSectorSize;
            slice->assign(p, p + (stripe * stripe_sectors_ + hi - cur) *
                                 kSectorSize);
        }
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
                               std::shared_ptr<std::vector<uint8_t>> data,
                               std::shared_ptr<WriteCtx> ctx)
{
    PROF_SCOPE("md.write");
    StripeCache::Entry *entry =
        cache_->get_or_create(stripe, stripe_sectors_);
    // Apply the new data to the cache image.
    if (store_data_ && !data->empty()) {
        std::memcpy(entry->data.data() + lo * kSectorSize, data->data(),
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
        write_chunks(stripe, lo, hi, *data, parity, ctx);
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
        write_chunks(stripe, lo, hi, *data, parity, ctx);
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
        if (!data->empty()) {
            std::memcpy(rmw->image.data() + lo * kSectorSize,
                        data->data(),
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
        write_chunks(stripe, lo, hi, *data, parity, ctx);
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
                                            const std::vector<uint8_t> &d) {
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
                   [one_done, off](Status st, std::vector<uint8_t> d) {
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
                       const std::vector<uint8_t> &data,
                       const std::vector<uint8_t> &parity,
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
        if (static_cast<int>(dev) != failed_dev_ &&
            !devs_[dev]->failed()) {
            IoRequest req;
            req.op = IoOp::kWrite;
            req.slba = chunk_pba(stripe) + in_chunk;
            req.nsectors = static_cast<uint32_t>(len);
            if (store_data_ && !data.empty()) {
                const uint8_t *p = data.data() + (cur - lo) * kSectorSize;
                req.data.assign(p,
                                p + static_cast<size_t>(len) * kSectorSize);
            }
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
    if (static_cast<int>(pdev) != failed_dev_ && !devs_[pdev]->failed()) {
        uint64_t plo, phi;
        parity_byte_range(lo, hi, cfg_.chunk_sectors, &plo, &phi);
        uint64_t plo_s = plo / kSectorSize;
        uint64_t phi_s = div_ceil(phi, kSectorSize);
        IoRequest req;
        req.op = IoOp::kWrite;
        req.slba = chunk_pba(stripe) + plo_s;
        req.nsectors = static_cast<uint32_t>(phi_s - plo_s);
        if (store_data_ && !parity.empty()) {
            req.data.assign(
                parity.begin() +
                    static_cast<ptrdiff_t>(plo_s * kSectorSize),
                parity.begin() +
                    static_cast<ptrdiff_t>(phi_s * kSectorSize));
        }
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
    auto pending = std::make_shared<uint32_t>(0);
    auto first = std::make_shared<Status>();
    auto done = [pending, first, cb = std::move(cb)](IoResult r) {
        if (!r.status.is_ok() && first->is_ok())
            *first = r.status;
        if (--*pending == 0) {
            IoResult out;
            out.status = *first;
            cb(std::move(out));
        }
    };
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (static_cast<int>(d) == failed_dev_ || devs_[d]->failed())
            continue;
        (*pending)++;
        IoRequest freq = IoRequest::flush();
        freq.cause = obs::Cause::kUserData;
        dev_submit(d, std::move(freq),
                   [this, done, d](IoResult r) mutable {
                       if (!r.status.is_ok() &&
                           escalate_dev_error(d, r.status)) {
                           r.status = Status::ok();
                       }
                       done(std::move(r));
                   });
    }
}

void
MdVolume::mark_device_failed(uint32_t dev)
{
    if (dev >= devs_.size()) {
        LOG_ERROR("mdraid: mark_device_failed: no device %u", dev);
        return;
    }
    if (failed_dev_ < 0) {
        failed_dev_ = static_cast<int>(dev);
        if (!devs_[dev]->failed())
            devs_[dev]->fail();
        maybe_start_auto_rebuild(dev);
    }
}

} // namespace raizn
