/**
 * @file
 * mdraid resync (§6.2, Fig. 12): after a failed device is replaced,
 * md reconstructs and rewrites the replacement's ENTIRE address space.
 * Unlike RAIZN it cannot distinguish valid data from free space, so
 * the time to repair is constant regardless of array fill.
 */
#include "array/stripe_gather.h"
#include "common/logging.h"
#include "mdraid/md_volume.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

struct ResyncJob {
    uint32_t dev = 0;
    uint64_t nchunks = 0; ///< chunks on the replacement device
    uint64_t next_issue = 0;
    uint64_t completed = 0;
    uint32_t inflight = 0;
    Status status;
    std::function<void(uint64_t, uint64_t)> progress;
    StatusCb done;
    bool finished = false;

    // Trace correlation (0 = tracing detached).
    uint64_t trace_req = 0;
    uint64_t total_token = 0; ///< open "resync.device" span

    static constexpr uint64_t kWindow = 32;
};

} // namespace

void
MdVolume::rebuild_device(uint32_t dev, ProgressCb progress, StatusCb done)
{
    if (failed_dev_ != static_cast<int>(dev) || devs_[dev]->failed()) {
        loop_->schedule_after(1, [done = std::move(done)] {
            done(Status(StatusCode::kInvalidArgument,
                        "device not failed+replaced"));
        });
        return;
    }

    auto job = std::make_shared<ResyncJob>();
    job->dev = dev;
    job->nchunks = devs_[dev]->geometry().nsectors / cfg_.chunk_sectors;
    job->progress = std::move(progress);
    job->done = std::move(done);
    if (trace_ != nullptr) {
        job->trace_req = trace_->next_request_id();
        job->total_token = trace_->begin_span(
            "resync.device", job->trace_req, obs::kTrackMetadata,
            loop_->now());
    }

    // Online resync: a configured rate caps resync traffic so degraded
    // foreground service keeps its floor.
    start_rebuild_throttle();

    // The pump refers to itself only weakly: the IO completions and
    // wake-ups it arms hold it alive, so a resync abandoned mid-flight
    // frees it along with those pending callbacks.
    auto pump = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_pump = pump;
    *pump = [this, job, weak_pump]() {
        if (job->finished)
            return;
        auto pump = weak_pump.lock(); // alive: our caller holds it
        while (job->next_issue < job->nchunks &&
               job->inflight < ResyncJob::kWindow) {
            if (!pace_rebuild(cfg_.chunk_sectors, [pump] { (*pump)(); }))
                break;
            uint64_t stripe = job->next_issue++;
            job->inflight++;
            // Reconstruct this device's chunk from every other device:
            // XOR works for both data chunks and the parity chunk.
            auto write_out = [this, job, stripe, pump](
                                 Status s, std::vector<uint8_t> data) {
                if (!s.is_ok() && job->status.is_ok())
                    job->status = s;
                IoRequest req;
                req.op = IoOp::kWrite;
                req.slba = chunk_pba(stripe);
                req.nsectors = cfg_.chunk_sectors;
                req.trace_req = job->trace_req;
                req.trace_stage = "resync.write";
                req.cause = obs::Cause::kResync;
                if (store_data_) {
                    data.resize(static_cast<size_t>(cfg_.chunk_sectors) *
                                kSectorSize);
                    req.data = std::move(data);
                }
                dev_submit(
                    job->dev, std::move(req),
                    [this, job, pump](IoResult r) {
                        if (!r.status.is_ok() && job->status.is_ok())
                            job->status = r.status;
                        stats_.resynced_sectors += cfg_.chunk_sectors;
                        job->inflight--;
                        job->completed++;
                        if (job->progress &&
                            job->completed % 1024 == 0) {
                            job->progress(job->completed, job->nchunks);
                        }
                        if (job->completed == job->nchunks &&
                            !job->finished) {
                            job->finished = true;
                            failed_dev_ = -1;
                            if (trace_ != nullptr &&
                                job->total_token != 0) {
                                trace_->end_span(job->total_token,
                                                 loop_->now());
                            }
                            auto done = std::move(job->done);
                            done(job->status);
                            return;
                        }
                        (*pump)();
                    });
            };
            StripeGather::Spec spec;
            if (store_data_)
                spec.bytes =
                    static_cast<size_t>(cfg_.chunk_sectors) * kSectorSize;
            spec.cause = obs::Cause::kResync;
            spec.stage = "resync.read";
            spec.trace_req = job->trace_req;
            StripeGather g(this, spec, std::move(write_out));
            for (uint32_t d = 0; d < devs_.size(); ++d)
                if (d != job->dev)
                    g.read(d, chunk_pba(stripe), cfg_.chunk_sectors);
            g.seal();
        }
    };
    loop_->schedule_after(1, [pump] { (*pump)(); });
}

} // namespace raizn
