/**
 * @file
 * The one rebuild walk behind every engine (paper §4.2, Fig. 12). The
 * base checks the request, walks the engine's zones in order, paces the
 * traffic with the lifecycle throttle, and per zone keeps a window of
 * units reconstructing ahead while it writes them to the target in unit
 * order, the zone's last one with FUA so the finished zone is durable.
 * The first error wins; progress fires once per zone. The target's
 * failed mark clears when the walk ends without error, and only then.
 *
 * The engine supplies the policy (zoned_array.h, "Rebuild policy"): what
 * to ready before the walk, which zones to walk, each unit's target
 * extent and content, the target-write route, and what a rebuilt zone
 * and a finished rebuild commit. RAIZN walks only the written stripes of
 * non-empty zones, so its time to repair scales with the data; mdraid
 * walks its whole address space as one range of chunks, so its time is
 * constant.
 *
 * Walk state lives in a RebuildWalk that the IO completions and
 * throttle wake-ups hold: a rebuild abandoned mid-flight (array
 * teardown, power cut) frees with those pending callbacks.
 */
#include "array/zoned_array.h"

#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

struct ZonedArray::RebuildWalk {
    static constexpr uint64_t kWindow = 32; ///< units read ahead per zone

    uint32_t dev = 0;
    ProgressCb progress;
    StatusCb done;
    Status status; ///< first error of the rebuild
    bool finished = false;
    bool stores = false; ///< members carry payloads
    std::shared_ptr<bool> alive; ///< the array's
    std::vector<bool> rebuilt; ///< per zone of the array
    std::vector<uint32_t> zones;
    size_t zone_i = 0;

    // The current zone: opening (active), then open.
    uint32_t zone = 0;
    bool zone_active = false;
    bool zone_open = false;
    Status zone_status; ///< first error within the zone
    uint64_t nunits = 0;
    uint64_t next_issue = 0;
    uint64_t next_write = 0;
    uint64_t last_unit = 0; ///< last non-empty unit: its write is FUA
    uint32_t inflight_writes = 0;
    struct Slot {
        bool ready = false;
        RebuildExtent e;
        IoBuf data;
    };
    Slot window[kWindow]; ///< unit i sits in window[i % kWindow]

    // Trace correlation (0 = tracing detached).
    uint64_t trace_req = 0;
    uint64_t total_token = 0; ///< open "rebuild.device" span
    uint64_t zone_token = 0; ///< open "rebuild.zone" span

    void
    note(const Status &s)
    {
        if (s.is_ok())
            return;
        if (status.is_ok())
            status = s;
        if (zone_status.is_ok())
            zone_status = s;
    }
};

int
ZonedArray::rebuild_target() const
{
    return rebuild_ != nullptr ? static_cast<int>(rebuild_->dev) : -1;
}

bool
ZonedArray::zone_rebuilt(uint32_t zone) const
{
    return rebuild_ != nullptr && zone < rebuild_->rebuilt.size() &&
           rebuild_->rebuilt[zone];
}

void
ZonedArray::mark_zone_rebuilt(uint32_t zone)
{
    if (rebuild_ != nullptr && zone < rebuild_->rebuilt.size())
        rebuild_->rebuilt[zone] = true;
}

Status
ZonedArray::rebuild_check(uint32_t dev) const
{
    if (dev >= num_devices())
        return Status(StatusCode::kInvalidArgument,
                      "device index out of range");
    if (!rebuild_zones(dev, nullptr))
        return Status(StatusCode::kNotSupported,
                      "rebuild unsupported on this array");
    if (rebuild_running())
        return Status(StatusCode::kBusy, "rebuild already in progress");
    if (!is_marked_failed(dev) || devs_[dev]->failed())
        return Status(StatusCode::kInvalidArgument,
                      "device not failed+replaced");
    return Status::ok();
}

void
ZonedArray::rebuild_device(uint32_t dev, ProgressCb progress, StatusCb done)
{
    Status bad = rebuild_check(dev);
    if (!bad.is_ok()) {
        loop_->schedule_after(1, [done = std::move(done), bad] {
            if (done)
                done(bad);
        });
        return;
    }
    auto w = std::make_shared<RebuildWalk>();
    w->dev = dev;
    w->progress = std::move(progress);
    w->done = std::move(done);
    w->stores = members_store_data();
    w->alive = alive_;
    w->rebuilt.assign(num_zones(), false);
    rebuild_ = w;
    rebuild_prepare(dev, [this, w](Status s) {
        if (!*w->alive)
            return;
        if (!s.is_ok()) {
            rebuild_ = nullptr;
            loop_->schedule_after(1, [w, s] {
                if (w->done)
                    w->done(s);
            });
            return;
        }
        // Paced from here on, so degraded foreground service keeps
        // its share of the array.
        start_rebuild_throttle();
        if (trace_ != nullptr) {
            w->trace_req = trace_->next_request_id();
            w->total_token = trace_->begin_span(
                "rebuild.device", w->trace_req, obs::kTrackMetadata,
                loop_->now());
        }
        rebuild_zones(w->dev, &w->zones);
        loop_->schedule_after(1, [this, w] {
            if (*w->alive)
                rebuild_pump(w);
        });
    });
}

void
ZonedArray::rebuild_pump(const std::shared_ptr<RebuildWalk> &w)
{
    if (w->finished)
        return; // a late wake-up
    if (!w->zone_active) {
        if (w->zone_i >= w->zones.size()) {
            rebuild_end(w);
            return;
        }
        const uint32_t zone = w->zones[w->zone_i];
        w->zone = zone;
        w->zone_active = true;
        w->zone_status = Status::ok();
        w->nunits = w->next_issue = w->next_write = w->last_unit = 0;
        if (trace_ != nullptr) {
            w->zone_token = trace_->begin_span("rebuild.zone", w->trace_req,
                                               obs::kTrackMetadata,
                                               loop_->now());
        }
        rebuild_zone_open(w->dev, zone, [this, w, zone](Status s,
                                                        uint64_t nunits) {
            if (!*w->alive)
                return;
            w->note(s);
            w->nunits = nunits;
            for (uint64_t i = nunits; i-- > 0;) {
                if (rebuild_extent(w->dev, zone, i).nsectors > 0) {
                    w->last_unit = i;
                    break;
                }
            }
            w->zone_open = true;
            rebuild_pump(w);
        });
        return;
    }
    if (!w->zone_open)
        return; // a wake-up while the zone opens or commits
    constexpr uint64_t kWindow = RebuildWalk::kWindow;

    // Reconstruct ahead within the window, paced by the throttle. A
    // read completing in place re-enters the pump, which may move on to
    // the next zone: both loops re-read the walk on every step.
    while (w->next_issue < w->nunits &&
           w->next_issue < w->next_write + kWindow) {
        const uint64_t i = w->next_issue;
        RebuildWalk::Slot &slot = w->window[i % kWindow];
        slot.e = rebuild_extent(w->dev, w->zone, i);
        if (slot.e.nsectors == 0) {
            w->next_issue++;
            slot.ready = true;
            slot.data = {};
            continue;
        }
        if (!pace_rebuild(slot.e.nsectors, [this, w] { rebuild_pump(w); }))
            break;
        w->next_issue++;
        slot.ready = false;
        const uint64_t rtok = trace_ != nullptr
            ? trace_->begin_span("rebuild.reconstruct", w->trace_req,
                                 obs::kTrackMetadata, loop_->now())
            : 0;
        rebuild_read(w->dev, w->zone, i, slot.e,
                     [this, w, i, rtok](Status st, IoBuf data) {
                         if (!*w->alive)
                             return;
                         if (trace_ != nullptr && rtok != 0)
                             trace_->end_span(rtok, loop_->now());
                         w->note(st);
                         RebuildWalk::Slot &s = w->window[i % kWindow];
                         s.ready = true;
                         s.data = std::move(data);
                         rebuild_pump(w);
                     });
    }

    // Write the ready units in unit order (sequential zones).
    while (w->next_write < w->next_issue &&
           w->window[w->next_write % kWindow].ready) {
        const uint64_t i = w->next_write++;
        RebuildWalk::Slot &slot = w->window[i % kWindow];
        IoBuf content = std::move(slot.data);
        const uint32_t len = slot.e.nsectors;
        if (len == 0)
            continue;
        IoRequest req;
        req.op = IoOp::kWrite;
        req.cause = rebuild_cause();
        req.slba = slot.e.pba;
        req.nsectors = len;
        // Under the sequential zone cache model a FUA write persists
        // everything written before it: the zone is durable once its
        // last unit completes, so a zone commit never over-claims.
        req.fua = i == w->last_unit;
        if (w->stores) {
            const size_t n = static_cast<size_t>(len) * kSectorSize;
            if (content.size() < n) {
                std::vector<uint8_t> padded = std::move(content).to_vector();
                padded.resize(n);
                content = std::move(padded);
            }
            req.data = content.prefix(n);
        }
        req.trace_req = w->trace_req;
        req.trace_stage = "rebuild.write";
        w->inflight_writes++;
        rebuild_write(w->dev, w->zone, std::move(req), [this, w](IoResult r) {
            if (!*w->alive)
                return;
            w->note(r.status);
            w->inflight_writes--;
            rebuild_pump(w);
        });
    }

    if (w->zone_open && w->next_write >= w->nunits &&
        w->inflight_writes == 0)
        rebuild_zone_complete(w);
}

void
ZonedArray::rebuild_zone_complete(const std::shared_ptr<RebuildWalk> &w)
{
    const uint32_t zone = w->zone;
    w->zone_open = false;
    if (trace_ != nullptr && w->zone_token != 0) {
        trace_->end_span(w->zone_token, loop_->now());
        w->zone_token = 0;
    }
    if (zone < w->rebuilt.size())
        w->rebuilt[zone] = true;
    rebuild_zone_done(w->dev, zone, w->zone_status, [this, w](Status s) {
        if (!*w->alive)
            return;
        w->note(s);
        if (w->progress)
            w->progress(w->zone_i + 1, w->zones.size());
        w->zone_i++;
        w->zone_active = false;
        rebuild_pump(w);
    });
}

void
ZonedArray::rebuild_end(const std::shared_ptr<RebuildWalk> &w)
{
    w->finished = true;
    rebuild_finish(w->dev, w->status, [this, w](Status s) {
        if (!*w->alive)
            return;
        rebuild_ = nullptr;
        // Only a rebuilt member leaves the failed set; a failed
        // rebuild leaves its target out until the next one succeeds.
        if (s.is_ok())
            clear_failed(w->dev);
        if (trace_ != nullptr && w->total_token != 0)
            trace_->end_span(w->total_token, loop_->now());
        auto done = std::move(w->done);
        if (done)
            done(s);
    });
}

} // namespace raizn
