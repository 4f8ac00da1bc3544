/**
 * @file
 * ZonedArray: the shared interface every RAID engine in this repo sits
 * behind — the paper's RaiznVolume, the md-raid comparison stack, and
 * the generic ZonedEngine modes (RAID-0/1/5/6/10, auto). The base owns
 * everything the modes would otherwise re-implement: the retry/backoff
 * + watchdog submit path (src/fault), per-device health tracking with
 * escalation into mark_device_failed, hot-spare bookkeeping, and the
 * metrics/trace attachment (per-device DeviceStats + latency
 * histograms, health counters, total-latency histograms).
 *
 * The base also owns the failure lifecycle. It holds the one
 * failed-member set: a member bitmask, the count and the first member
 * marked. A mark fails the member on the media and may promote a hot
 * spare; it clears only when a rebuild of that member succeeds, at the
 * end of the shared walk. A member is up when it is not marked failed,
 * or when it is the running rebuild's target (already-rebuilt zones
 * take writes on it, so flushes must reach it). A failure beyond
 * fault_tolerance() is recorded, vetoes automatic failover and refuses
 * writes. Every flush, zone reset and finish and journal append fans out
 * through one MemberJoin, which absorbs a member error the array can
 * survive by failing that member within tolerance.
 *
 * It also owns one LifecycleConfig, the automatic failover onto a hot
 * spare, and the fixed-rate rebuild throttle. It owns the one rebuild
 * walk (array/rebuild.cc): the argument check, the zone walk, the
 * pacing, an in-order window of reconstruct-ahead units per zone,
 * progress, spans and the finish; engines name the zones, each unit's
 * target extent and content, the target-write route and what a rebuilt
 * zone commits. And it owns the one scrub walker (array/scrub.cc): the
 * pass loop, the background scrubber and the verdict; engines name their
 * stripes and member reads, and RAIZN repairs.
 *
 * Subclasses provide the data path (read/write/flush/zone management),
 * the refusal a write gets beyond tolerance, the rebuild and scrub
 * policies, and a stats struct; the base reaches into that struct
 * through StatCells so each engine keeps its own counter layout and
 * metric names.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/raid_mode.h"
#include "array/throttle.h"
#include "common/slab.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "zns/block_device.h"

namespace raizn {

namespace obs {
class MetricsRegistry;
class Session;
class TraceRecorder;
class LatencyMetric;
class Timeline;
} // namespace obs

class CrcCatalog;
class EventLoop;

/// Flags on a logical sequential write (kernel REQ_FUA / REQ_PREFLUSH).
struct WriteFlags {
    bool fua = false;
    bool preflush = false;
    /// Byte-provenance of this logical write. Defaults to user data;
    /// internal writers reusing the volume write path (env GC
    /// relocation) override it so their data sub-I/Os carry the real
    /// cause and stay out of the acked-user-bytes WAF denominator.
    /// Parity/WAL fan-out keeps its own cause regardless of origin.
    obs::Cause origin = obs::Cause::kUserData;
};

using StatusCb = std::function<void(Status)>;

class ZonedArray
{
  public:
    using ProgressCb = std::function<void(uint64_t done, uint64_t total)>;
    /// Completion carrying a unit's bytes (empty when timing-only).
    using DataCb = std::function<void(Status, IoBuf)>;

    /// Retry/backoff, watchdog, and health-escalation knobs.
    struct ResilienceConfig {
        RetryPolicy retry;
        HealthConfig health;
    };

    /// Outcome of one scrub pass over the written stripes.
    struct ScrubReport {
        uint64_t stripes_scanned = 0;
        uint64_t parity_mismatches = 0; ///< XOR(data) != parity
        uint64_t crc_mismatches = 0; ///< units failing their checksums
        uint64_t repaired_units = 0; ///< data units read-repaired
        uint64_t repaired_parity = 0; ///< parity units rewritten
        uint64_t unrecoverable = 0; ///< mismatches scrub could not fix
    };

    virtual ~ZonedArray();
    ZonedArray(const ZonedArray &) = delete;
    ZonedArray &operator=(const ZonedArray &) = delete;

    // ---- Identity / geometry ---------------------------------------
    virtual RaidMode mode() const = 0;
    /// Device failures this array keeps serving through.
    virtual uint32_t fault_tolerance() const = 0;
    /// False for arrays over conventional devices (md-raid): no zones,
    /// reset/finish are unsupported and writes may overwrite.
    virtual bool zoned() const { return true; }
    virtual uint64_t capacity() const = 0;
    virtual uint32_t num_zones() const { return 0; }
    virtual uint64_t zone_capacity() const { return 0; }
    /// Report Zones for the logical device (zoned arrays only).
    virtual Result<ZoneInfo> zone_info(uint32_t zone) const;

    // ---- Data path -------------------------------------------------
    virtual void read(uint64_t lba, uint32_t nsectors, IoCallback cb) = 0;
    /// Sequential zone write (zoned) / positional write (conventional)
    /// of `data`, whose size sets the length. A moved-in vector is
    /// adopted without a copy; member sub-I/Os share its bytes.
    void
    write(uint64_t lba, IoBuf data, WriteFlags flags, IoCallback cb)
    {
        const auto n = static_cast<uint32_t>(data.size() / kSectorSize);
        submit_write(lba, n, std::move(data), flags, std::move(cb));
    }
    /// Timing-only write of `nsectors`: no payload.
    void
    write_len(uint64_t lba, uint32_t nsectors, WriteFlags flags,
              IoCallback cb)
    {
        submit_write(lba, nsectors, {}, flags, std::move(cb));
    }
    virtual void flush(IoCallback cb) = 0;
    virtual void reset_zone(uint32_t zone, IoCallback cb);
    virtual void finish_zone(uint32_t zone, IoCallback cb);

    // ---- Fault management ------------------------------------------
    /**
     * Marks member `dev` failed: reads reconstruct and writes omit it.
     * Within fault_tolerance() the member is also failed on the media
     * and a usable hot spare is promoted. Beyond it the mark is only
     * recorded, and writes get write_refusal(). The mark clears when a
     * rebuild of `dev` succeeds, and only then.
     */
    void mark_device_failed(uint32_t dev);
    /// First member marked failed (and still marked), -1 when none is.
    int failed_device() const { return first_failed_; }
    bool is_marked_failed(uint32_t dev) const
    {
        return (failed_mask_ >> dev & 1) != 0;
    }
    bool degraded() const { return failed_count_ > 0; }
    /// True while no more members are marked failed than tolerated.
    bool
    within_tolerance() const
    {
        return failed_count_ <= fault_tolerance();
    }
    /**
     * Rebuilds member `dev`, marked failed and since replaced, from
     * redundancy, zone by zone: `progress` fires once per zone, `done`
     * once with the first error. kInvalidArgument when `dev` is out of
     * range, healthy or not replaced; kBusy while a rebuild runs;
     * kNotSupported on arrays without a rebuild policy.
     */
    void rebuild_device(uint32_t dev, ProgressCb progress, StatusCb done);
    /**
     * Verifies redundancy across the written stripes, one stripe at a
     * time, driving the event loop until the pass completes: P and Q
     * equations and mirror copies against the media, the bad unit
     * localised with the CRC catalog and, where the engine repairs,
     * rewritten. kNotSupported on timing-only members and on arrays
     * without a scrub policy.
     */
    Status scrub_all(ScrubReport *report = nullptr);

    /**
     * Starts the background scrubber: one stripe every `interval`
     * ticks, `on_pass` fired after each complete pass. Opt-in — never
     * started automatically (benches drain the loop synchronously).
     * Restarting replaces the running pass.
     */
    void start_scrubber(Tick interval,
                        std::function<void(const ScrubReport &)> on_pass =
                            nullptr);
    void stop_scrubber() { scrubber_ = nullptr; }
    bool scrubber_running() const { return scrubber_ != nullptr; }

    /// Replaces the retry policy and health thresholds (resets health
    /// history). Call before issuing IO.
    void set_resilience(const ResilienceConfig &rc);
    const HealthMonitor &health() const { return *health_; }

    /**
     * Attaches a hot spare (a fresh, formatted-blank device with the
     * same geometry). Non-owning; the spare must outlive the array or
     * be detached with set_spare(nullptr).
     */
    void set_spare(BlockDevice *spare) { spare_ = spare; }
    bool has_spare() const { return spare_ != nullptr; }

    /**
     * Failure-lifecycle policy: when a device is marked failed and a
     * usable hot spare is attached, the spare is promoted and rebuilt
     * in the background with no caller intervention (healthy -> failed
     * -> rebuilding -> healthy). `throttle` caps every rebuild's
     * traffic, automatic or not, so degraded foreground service keeps
     * headroom; rate 0 leaves rebuilds unthrottled.
     */
    struct LifecycleConfig {
        bool auto_rebuild = true; ///< promote + rebuild on failure
        RebuildThrottleConfig throttle;
        /// Fired when an automatic rebuild finishes (or fails).
        std::function<void(uint32_t dev, Status s)> on_rebuild_done;
    };
    void set_lifecycle(LifecycleConfig lc) { lifecycle_ = std::move(lc); }
    const LifecycleConfig &lifecycle() const { return lifecycle_; }

    // ---- Observability ---------------------------------------------
    /**
     * Wires this array into an observability session (src/obs): its
     * registry gets the stats (attach_observability), its trace the
     * stage spans, its ledger every member device, and its timeline
     * this array's gauge probes. Close the session before the array
     * dies; null detaches.
     */
    void attach(obs::Session *session);

    /**
     * Links the subclass stats struct under "<metric_prefix>.*",
     * per-device DeviceStats under "<dev_metric_prefix>.dev<i>.*" plus
     * latency histograms, and (when link_health_metrics()) per-device
     * health counters under "<metric_prefix>.health.dev<i>.*". Either
     * pointer may be null; pass nulls to detach. attach() calls this;
     * it stays public for rzbench (rzbench/src/common.cc), which
     * links a bare registry.
     */
    void attach_observability(obs::MetricsRegistry *reg,
                              obs::TraceRecorder *trace);

    // ---- Introspection ---------------------------------------------
    uint32_t num_devices() const
    {
        return static_cast<uint32_t>(devs_.size());
    }
    BlockDevice *device(uint32_t i) const { return devs_[i]; }

  protected:
    friend class StripeGather;

    /**
     * Pointers into the subclass's stats struct for the counters the
     * base maintains. Formed in the subclass's member-init list before
     * the stats struct is initialized — legal (no reads happen until
     * IO runs) and it keeps each engine's counter layout and metric
     * names intact.
     */
    struct StatCells {
        uint64_t *io_retries = nullptr;
        uint64_t *io_timeouts = nullptr;
        uint64_t *dev_errors = nullptr;
        uint64_t *spares_promoted = nullptr;
        uint64_t *auto_failovers = nullptr;
        uint64_t *throttle_stalls = nullptr; ///< rebuild IOs delayed
        uint64_t *scrubbed_stripes = nullptr;
        uint64_t *crc_mismatches = nullptr; ///< scrub units failing CRCs
    };

    ZonedArray(EventLoop *loop, std::vector<BlockDevice *> devs,
               StatCells cells);

    /// Data-path device submit: stage span + per-device latency, then
    /// the retrier/watchdog. Subclass admin paths may bypass it.
    void dev_submit(uint32_t dev, IoRequest req, IoCallback cb);

    /**
     * Wraps a logical read's (or `write`'s) callback with its
     * observability, when any is attached: the ledger's acked-user-byte
     * count, a request-track `span` (none when null) and the latency
     * histogram. `*treq` receives the trace request id, 0 when
     * untraced.
     */
    IoCallback observe_io(bool write, uint32_t nsectors, const char *span,
                          IoCallback cb, uint64_t *treq = nullptr);

    /**
     * Called with a persistent (post-retry) device error: counts it
     * and escalates to mark_device_failed when the health evidence
     * warrants. Returns true when `dev` is now treated as failed, i.e.
     * the caller should degrade instead of propagating.
     */
    bool escalate_dev_error(uint32_t dev, const Status &s);

    /**
     * Failover policy, called when `dev` has just been marked failed:
     * if auto_rebuild is on and the attached spare is usable (not
     * failed, matching geometry), counts the failover and — deferred
     * off the error path, which can run deep inside an IO completion —
     * promotes the spare and rebuilds it via rebuild_device().
     */
    void maybe_start_auto_rebuild(uint32_t dev);

    /// Arms a fresh token bucket for a rebuild starting now (none when
    /// the configured rate is 0).
    void start_rebuild_throttle();
    /**
     * Rebuild pacing: true when `sectors` of rebuild IO may issue now.
     * When the bucket is empty, counts a stall, schedules `resume` for
     * when the tokens will have accrued (at most one wake-up is armed
     * at a time), and returns false.
     */
    template <typename Fn>
    bool
    pace_rebuild(uint64_t sectors, Fn &&resume)
    {
        if (throttle_ == nullptr || throttle_->try_acquire(sectors))
            return true;
        rebuild_stalled(sectors, std::forward<Fn>(resume));
        return false;
    }
    /// Slow path of pace_rebuild: counts the stall, arms the wake-up.
    void rebuild_stalled(uint64_t sectors, std::function<void()> resume);

    // ---- Scrub policy ----------------------------------------------
    /// One stripe a scrub pass visits; `gen` is its zone's reset
    /// generation when the pass listed it.
    struct ScrubStripe {
        uint32_t zone = 0;
        uint64_t stripe = 0;
        uint64_t gen = 0;
    };
    /// One member read of a scrubbed stripe: a data unit (role >= 0,
    /// repeated for each mirror copy, copies adjacent) or parity
    /// (StripeGather::kP/kQ).
    struct ScrubUnit {
        uint32_t dev = 0;
        uint64_t pba = 0;
        uint32_t nsectors = 0;
        int role = 0;
        uint64_t crc_off = 0; ///< data units: zone-relative sector
    };
    struct ScrubPlan {
        CrcCatalog *crc = nullptr; ///< the stripe's zone catalog
        std::vector<ScrubUnit> units;
        uint32_t unreadable = 0; ///< data units no live member holds
    };
    /// Appends the stripes a pass visits, in order; false when this
    /// array does not scrub.
    virtual bool scrub_candidates(std::vector<ScrubStripe> * /*out*/) const
    {
        return false;
    }
    /**
     * Fills `plan` with the member reads verifying `s`. False skips the
     * stripe uncounted: its zone was reset or the stripe moved since
     * it was listed, or no equation can be checked. A null `plan` only
     * asks whether `s` is still current (once its reads are back).
     */
    virtual bool scrub_plan(const ScrubStripe & /*s*/, ScrubPlan * /*plan*/)
    {
        return false;
    }
    /// Rewrites unit `role` of `s` with `bytes`, which the verdict
    /// verified; false when the array only reports.
    virtual bool scrub_repair(const ScrubStripe & /*s*/, int /*role*/,
                              IoBuf /*bytes*/)
    {
        return false;
    }

    // ---- Rebuild policy --------------------------------------------
    /// Where one rebuild unit lands on the target; 0 sectors: nothing.
    struct RebuildExtent {
        uint64_t pba = 0;
        uint32_t nsectors = 0;
    };
    /// Appends the zones a rebuild of `dev` walks, in order; a null
    /// `out` only asks whether this array rebuilds at all.
    virtual bool rebuild_zones(uint32_t /*dev*/,
                               std::vector<uint32_t> * /*out*/) const
    {
        return false;
    }
    /// Readies the rebuild of `dev` before the walk; an error ends it.
    virtual void rebuild_prepare(uint32_t, StatusCb cb) { cb(Status::ok()); }
    /// Opens `zone` once its units may be written, with their count.
    virtual void
    rebuild_zone_open(uint32_t /*dev*/, uint32_t /*zone*/,
                      std::function<void(Status, uint64_t)> cb)
    {
        cb(Status::ok(), 0);
    }
    /// Target extent of a unit of the open zone (stable while open).
    virtual RebuildExtent rebuild_extent(uint32_t, uint32_t, uint64_t) const
    {
        return {};
    }
    /// Reconstructs a non-empty unit (empty bytes when timing-only).
    virtual void rebuild_read(uint32_t /*dev*/, uint32_t /*zone*/,
                              uint64_t /*unit*/, const RebuildExtent &,
                              DataCb cb)
    {
        cb(Status(StatusCode::kNotSupported, "no rebuild policy"), {});
    }
    /// Sends one target write. Default: dev_submit.
    virtual void rebuild_write(uint32_t dev, uint32_t, IoRequest req,
                               IoCallback cb)
    {
        dev_submit(dev, std::move(req), std::move(cb));
    }
    /// Commits a zone whose units are written (`s`: its first error);
    /// `cb` continues the walk.
    virtual void rebuild_zone_done(uint32_t, uint32_t, Status s, StatusCb cb)
    {
        cb(s);
    }
    /// Ends the rebuild after the walk; `cb` reports the final status.
    virtual void rebuild_finish(uint32_t, Status s, StatusCb cb) { cb(s); }
    /// Ledger cause of the target writes.
    virtual obs::Cause rebuild_cause() const { return obs::Cause::kRebuild; }

    bool rebuild_running() const { return rebuild_ != nullptr; }
    /// The member being rebuilt, -1 when none.
    int rebuild_target() const;
    /// True while a rebuild runs and has rebuilt (or skipped) `zone`.
    bool zone_rebuilt(uint32_t zone) const;
    /// Marks `zone` as needing no rebuild (from rebuild_prepare).
    void mark_zone_rebuilt(uint32_t zone);

    // ---- Subclass hooks --------------------------------------------
    /// The one write entry point behind write() and write_len();
    /// `data` is empty for timing-only writes.
    virtual void submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                              WriteFlags flags, IoCallback cb) = 0;
    /// Member read issued by a StripeGather over logical zone `zone`.
    /// Default: dev_submit; engines that order IO per zone queue it.
    virtual void
    gather_submit(uint32_t dev, uint32_t zone, IoRequest req, IoCallback cb)
    {
        (void)zone;
        dev_submit(dev, std::move(req), std::move(cb));
    }
    /// Metric namespace for the array's own stats ("raizn", "raid5").
    virtual std::string metric_prefix() const = 0;
    /// Namespace for per-device stats ("zns" for raizn — historical —
    /// and the metric prefix for everything else).
    virtual std::string dev_metric_prefix() const
    {
        return metric_prefix();
    }
    /// Links the subclass stats struct into `reg` (obs::link_stats).
    virtual void link_stats_hook(obs::MetricsRegistry &reg) = 0;
    /// Whether per-device health counters get registry entries.
    virtual bool link_health_metrics() const { return true; }
    /// Re-wire anything that caches the retrier (set_resilience
    /// recreates it).
    virtual void on_resilience_changed() {}
    /// Health-monitor escalation edges land here (invoked only after
    /// construction completes). Default: fail the device on kFailed.
    virtual void on_health_event(uint32_t dev, HealthEvent ev);
    /// Runs right after the spare was swapped into slot `dev`.
    virtual void on_spare_promoted(uint32_t dev) { (void)dev; }
    /// What a write gets once more members failed than the array
    /// tolerates. Default: kOffline.
    virtual Status write_refusal() const;
    /// Answers `cb` with write_refusal() on the next tick when the
    /// array is beyond its tolerance; false when writes may proceed.
    bool refuse_write(IoCallback &cb);

    /// Up: takes commands. Not marked failed, or the running rebuild's
    /// target.
    bool
    member_up(uint32_t dev) const
    {
        return !is_marked_failed(dev) ||
               static_cast<int>(dev) == rebuild_target();
    }
    /// Records `dev` as failed without side effects (mount-time
    /// discovery of an absent member).
    void note_failed(uint32_t dev);

    /**
     * One command fanned out to members and joined, in the style of
     * StripeGather: flushes, zone resets and finishes (parity seals
     * included) and journal appends. Each member completion escalates
     * its error; the error counts unless that member is now marked
     * failed within tolerance. `done` gets the first error that counted
     * once every member has arrived, and kOffline on the next tick when
     * the join was sealed without a member. The join state is one slot
     * of a pool the array owns, and each member completion captures
     * only the array, the slot and the member.
     */
    class MemberJoin
    {
      public:
        MemberJoin(ZonedArray *arr, IoCallback done);
        /// Completion of the command the caller sends to member `dev`.
        IoCallback member(uint32_t dev);
        /// Sends `req` to member `dev` through dev_submit.
        void send(uint32_t dev, IoRequest req);
        /// No more members follow.
        void seal();

      private:
        ZonedArray *arr_;
        uint32_t slot_;
    };
    /// Sends a copy of `req` to every up member, joined into `done`.
    void fan_out(const IoRequest &req, IoCallback done);

    EventLoop *loop_;
    std::vector<BlockDevice *> devs_;
    StatCells cells_;

    // Resilience layer (hoisted from RaiznVolume / MdVolume).
    std::unique_ptr<HealthMonitor> health_;
    std::unique_ptr<IoRetrier> retrier_;
    BlockDevice *spare_ = nullptr; ///< non-owning hot spare

    // Failure lifecycle.
    LifecycleConfig lifecycle_;
    std::unique_ptr<RebuildThrottle> throttle_; ///< latest rebuild's bucket
    bool throttle_armed_ = false; ///< a pacing wake-up is scheduled

    // Observability: null when detached. Latency handles are resolved
    // once in attach_observability so the hot path never performs a
    // name lookup; the registry pointer is kept so health counters can
    // be re-linked when set_resilience recreates the monitor.
    obs::MetricsRegistry *reg_ = nullptr;
    obs::TraceRecorder *trace_ = nullptr;
    obs::IoLedger *ledger_ = nullptr;
    struct DevObs {
        obs::LatencyMetric *read_ns = nullptr;
        obs::LatencyMetric *write_ns = nullptr;
        obs::LatencyMetric *flush_ns = nullptr;
        obs::LatencyMetric *other_ns = nullptr;
    };
    std::vector<DevObs> dev_obs_;
    obs::LatencyMetric *write_lat_ = nullptr; ///< <prefix>.write.total_ns
    obs::LatencyMetric *read_lat_ = nullptr; ///< <prefix>.read.total_ns

    /// Guards scheduled events against array destruction.
    std::shared_ptr<bool> alive_;

  private:
    /**
     * Binds every member device (and a later-promoted spare) to the
     * byte-provenance ledger and installs the device back-pointers,
     * so device-layer recording and the dev_submit untagged-funnel
     * check go live; null detaches. The acked-user-byte denominators
     * (note_user_read/write) are the subclass's job at its ack points.
     */
    void attach_ledger(obs::IoLedger *ledger);
    /// Registers this array's gauge-refresh probes on the session's
    /// timeline, tagged with `this` so a detach can drop them.
    virtual void install_timeline(obs::Timeline *tl) { (void)tl; }
    obs::Session *session_ = nullptr;

    // The failed-member set.
    uint64_t failed_mask_ = 0; ///< members marked failed, bit per slot
    uint32_t failed_count_ = 0;
    int first_failed_ = -1;

    struct Join {
        uint32_t pending = 0;
        bool sent = false; ///< a member took the command
        bool sealed = false;
        Status first;
        IoCallback done;
    };
    /// A member of join `slot` arrived with `s` from member `dev`.
    void join_arrive(uint32_t slot, uint32_t dev, Status s);
    /// Fires join `slot`: sealed, and every member arrived.
    void join_settle(uint32_t slot);
    Slab<Join> joins_;

    /// Clears `dev`'s mark (a rebuild of it succeeded).
    void clear_failed(uint32_t dev);

    struct RebuildWalk;
    /// Why `dev` cannot be rebuilt now; ok when it can.
    Status rebuild_check(uint32_t dev) const;
    /// Advances `w`: opens the next zone, issues reads within the
    /// window, writes the ready units in order, completes the zone.
    void rebuild_pump(const std::shared_ptr<RebuildWalk> &w);
    void rebuild_zone_complete(const std::shared_ptr<RebuildWalk> &w);
    void rebuild_end(const std::shared_ptr<RebuildWalk> &w);
    std::shared_ptr<RebuildWalk> rebuild_; ///< running rebuild, or null

    /// True when every member stores payloads.
    bool members_store_data() const;

    struct ScrubWalk;
    /// The candidate snapshot of one pass; kNotSupported on
    /// timing-only members and on arrays that do not scrub.
    Status scrub_list(std::vector<ScrubStripe> *out) const;
    /// Scrubs `s` into `w`'s report, then continues the walk; false
    /// when the stripe was skipped without issuing anything.
    bool scrub_stripe(const ScrubStripe &s,
                      const std::shared_ptr<ScrubWalk> &w);
    void scrub_verdict(const ScrubStripe &s, const ScrubPlan &plan,
                       const IoBuf &bytes, ScrubReport *rep);
    /// Scrubs the next stripe of `w`: at once for scrub_all, after the
    /// interval for the background scrubber (scrub_then).
    void scrub_next(const std::shared_ptr<ScrubWalk> &w);
    void scrub_then(const std::shared_ptr<ScrubWalk> &w);

    std::shared_ptr<ScrubWalk> scrubber_; ///< background pass, or null
};

} // namespace raizn
