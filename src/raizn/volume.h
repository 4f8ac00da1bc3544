/**
 * @file
 * RaiznVolume: the paper's contribution. A logical host-managed zoned
 * device striped with distributed parity (RAID-5-like) across ZNS
 * devices, tolerating one device failure and power loss at any point.
 *
 * Public surface mirrors the kernel-block-layer view of a zoned device:
 * read / sequential write (with FUA and PREFLUSH) / flush / zone reset /
 * zone finish / report zones — plus management entry points for device
 * failure and rebuild.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "array/stripe_gather.h"
#include "array/zoned_array.h"
#include "common/slab.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "raizn/config.h"
#include "raizn/gen_counter.h"
#include "raizn/layout.h"
#include "array/md_manager.h"
#include "raizn/persist_bitmap.h"
#include "raizn/relocation.h"
#include "raizn/stripe_buffer.h"
#include "raizn/superblock.h"
#include "zns/block_device.h"

namespace raizn {

/// Counters exposed for tests, benches, and Table 1 accounting.
struct VolumeStats {
    uint64_t logical_reads = 0;
    uint64_t logical_writes = 0;
    uint64_t sectors_read = 0;
    uint64_t sectors_written = 0;
    uint64_t full_parity_writes = 0;
    uint64_t partial_parity_logs = 0;
    uint64_t partial_parity_sectors = 0;
    uint64_t relocated_writes = 0;
    uint64_t degraded_reads = 0;
    uint64_t reconstructed_sectors = 0;
    uint64_t zone_resets = 0;
    uint64_t flushes = 0;
    uint64_t fua_writes = 0;
    uint64_t fua_dependency_flushes = 0;
    uint64_t holes_repaired_in_place = 0;
    uint64_t holes_remapped = 0;
    uint64_t partial_zone_resets_completed = 0;
    uint64_t stripe_buffer_recycles = 0;
    uint64_t zones_rebuilt = 0;
    uint64_t stripes_rebuilt = 0;
    uint64_t phys_zone_rebuilds = 0;
    // Error-path counters (transient-fault resilience layer).
    uint64_t io_retries = 0; ///< device commands retried after backoff
    uint64_t io_timeouts = 0; ///< watchdog deadline expirations
    uint64_t dev_errors = 0; ///< persistent (post-retry) device errors
    uint64_t crc_mismatches = 0; ///< reads failing checksum validation
    uint64_t read_repairs = 0; ///< units/parity repaired from redundancy
    uint64_t scrubbed_stripes = 0; ///< stripes verified by the scrubber
    // Failure-lifecycle counters (automatic failover + rebuild).
    uint64_t health_suspects = 0; ///< suspect edges from the monitor
    uint64_t fail_slow_detected = 0; ///< advisory fail-slow verdicts
    uint64_t auto_failovers = 0; ///< health-driven failovers started
    uint64_t spares_promoted = 0; ///< hot spares swapped into a slot
    uint64_t rebuild_checkpoints = 0; ///< durable progress records
    uint64_t rebuild_zones_resumed = 0; ///< zones skipped after a crash
    uint64_t rebuild_throttle_stalls = 0; ///< rebuild IOs delayed

    /**
     * Enumerates every counter as (name, field). Single source of
     * truth for the names: dump() and the metrics-registry linkage
     * (obs::link_stats) both iterate this list.
     */
    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("logical_reads", logical_reads);
        fn("logical_writes", logical_writes);
        fn("sectors_read", sectors_read);
        fn("sectors_written", sectors_written);
        fn("full_parity_writes", full_parity_writes);
        fn("partial_parity_logs", partial_parity_logs);
        fn("partial_parity_sectors", partial_parity_sectors);
        fn("relocated_writes", relocated_writes);
        fn("degraded_reads", degraded_reads);
        fn("reconstructed_sectors", reconstructed_sectors);
        fn("zone_resets", zone_resets);
        fn("flushes", flushes);
        fn("fua_writes", fua_writes);
        fn("fua_dependency_flushes", fua_dependency_flushes);
        fn("holes_repaired_in_place", holes_repaired_in_place);
        fn("holes_remapped", holes_remapped);
        fn("partial_zone_resets_completed", partial_zone_resets_completed);
        fn("stripe_buffer_recycles", stripe_buffer_recycles);
        fn("zones_rebuilt", zones_rebuilt);
        fn("stripes_rebuilt", stripes_rebuilt);
        fn("phys_zone_rebuilds", phys_zone_rebuilds);
        fn("io_retries", io_retries);
        fn("io_timeouts", io_timeouts);
        fn("dev_errors", dev_errors);
        fn("crc_mismatches", crc_mismatches);
        fn("read_repairs", read_repairs);
        fn("scrubbed_stripes", scrubbed_stripes);
        fn("health_suspects", health_suspects);
        fn("fail_slow_detected", fail_slow_detected);
        fn("auto_failovers", auto_failovers);
        fn("spares_promoted", spares_promoted);
        fn("rebuild_checkpoints", rebuild_checkpoints);
        fn("rebuild_zones_resumed", rebuild_zones_resumed);
        fn("rebuild_throttle_stalls", rebuild_throttle_stalls);
    }

    /// One-line "key=value" rendering of every counter, for benches.
    std::string dump() const;
};

class RaiznVolume : public ZonedArray
{
  public:
    /**
     * mkfs: formats `devs` (resets metadata zones, writes role records
     * and superblocks) and returns a mounted volume. All devices must
     * share a zoned geometry compatible with `cfg`.
     */
    static Result<std::unique_ptr<RaiznVolume>>
    create(EventLoop *loop, std::vector<BlockDevice *> devs,
           const RaiznConfig &cfg);

    /**
     * Mounts an existing array: replays metadata logs, reconciles
     * write pointers, repairs stripe holes, completes interrupted zone
     * resets, and reconstructs in-memory state (§4.3, §5). Tolerates
     * one failed device (mounts degraded).
     */
    static Result<std::unique_ptr<RaiznVolume>>
    mount(EventLoop *loop, std::vector<BlockDevice *> devs);

    ~RaiznVolume() override;

    // ---- Geometry --------------------------------------------------
    const Layout &layout() const { return *layout_; }
    RaidMode mode() const override { return RaidMode::kRaizn; }
    uint32_t fault_tolerance() const override { return 1; }
    uint32_t num_zones() const override
    {
        return layout_->num_logical_zones();
    }
    uint64_t zone_capacity() const override
    {
        return layout_->logical_zone_cap();
    }
    uint64_t capacity() const override
    {
        return layout_->logical_capacity();
    }
    /// Open-zone budget exposed to the host: the device limit minus the
    /// metadata zones RAIZN itself keeps open.
    uint32_t max_open_zones() const { return max_open_zones_; }

    /// Report Zones for the logical device.
    Result<ZoneInfo> zone_info(uint32_t zone) const override;

    // ---- Data path -------------------------------------------------
    void read(uint64_t lba, uint32_t nsectors, IoCallback cb) override;
    void flush(IoCallback cb) override;
    void reset_zone(uint32_t zone, IoCallback cb) override;
    void finish_zone(uint32_t zone, IoCallback cb) override;

    // ---- Failure lifecycle -----------------------------------------
    // set_spare / set_lifecycle (automatic failover + rebuild throttle)
    // are inherited from ZonedArray.
    /**
     * True when mount found a durable rebuild checkpoint with state
     * in-progress: the crash interrupted a rebuild and the caller (or
     * an auto-rebuild lifecycle) should call resume_rebuild().
     */
    bool has_pending_rebuild() const { return pending_rebuild_dev_ >= 0; }
    int pending_rebuild_device() const { return pending_rebuild_dev_; }

    /**
     * Resumes a checkpointed rebuild after a crash: rebuild_device of
     * the pending device, whose zones the checkpoint marks complete are
     * verified against the replacement's write pointers and skipped;
     * everything else is rebuilt.
     */
    void resume_rebuild(ProgressCb progress, StatusCb done);

    // mark_device_failed / failed_device (inherited): a second failure
    // makes the volume read-only.
    bool read_only() const { return !within_tolerance(); }
    // rebuild_device (inherited) rebuilds a replaced device zone by
    // zone, active zones first, copying only LBA ranges that contain
    // user data (§4.2). Writes arriving during the rebuild are served
    // degraded for zones not yet rebuilt.

    // ---- Observability ---------------------------------------------
    // attach (inherited) links every VolumeStats counter under
    // "raizn.*", per-device DeviceStats + latency histograms under
    // "zns.dev<i>.*", and health counters under
    // "raizn.health.dev<i>.*". Trace spans: logical request on track 0,
    // metadata-manager appends on track 1, device commands on track
    // 2+i. Its timeline gauges: stripe-buffer / pp-log / relocation
    // backlog occupancy and the open-zone count under "raizn.gauge.*",
    // plus a per-device zone-state census
    // ("zns.dev<i>.zones_{empty,open,closed,full}") for members that
    // are ZNS devices.

    // Point-in-time backlog views (timeline gauges).
    /// Stripe buffers currently held across open logical zones.
    size_t open_stripe_buffers() const;
    /// Partial-parity log records indexed for degraded reconstruction.
    size_t pp_backlog() const;
    /// Relocated data + parity extents currently tracked.
    size_t reloc_backlog() const;

    // ---- Introspection ---------------------------------------------
    const VolumeStats &stats() const { return stats_; }
    const GenCounterTable &gen_counters() const { return gen_; }
    MdManager &md_manager() { return *md_; }

    /**
     * True when any sector of stripe `stripe` in logical zone `zone`
     * lives away from its home physical location (relocated data or
     * parity, or a burned range from hole rollback). Read-only; used by
     * the crash-point oracle to scope raw parity-XOR checks to stripes
     * stored at their home placement.
     */
    bool stripe_displaced(uint32_t zone, uint64_t stripe) const;

    /**
     * Deliberate bugs for oracle regression tests: each fault disables
     * one crash-consistency mechanism so tests can prove the checker
     * catches its absence. Never set outside tests.
     */
    enum class DebugFault {
        kNone,
        /// Skip the durable partial-parity log append (§5.1) while
        /// keeping the in-memory index — crashes while degraded lose
        /// the ability to reconstruct open stripes.
        kSkipPartialParityLog,
    };
    void set_debug_fault(DebugFault f) { debug_fault_ = f; }

    /// Memory footprint per metadata type (Table 1 reproduction).
    struct MemoryFootprint {
        size_t gen_counters;
        size_t superblock;
        size_t stripe_buffers;
        size_t persistence_bitmaps;
        size_t zone_descriptors;
        size_t relocations;
    };
    MemoryFootprint memory_footprint() const;

  private:
    struct LZone; ///< logical zone descriptor (name avoids ZoneState enum)
    struct WriteCtx;

    void install_timeline(obs::Timeline *tl) override;

    RaiznVolume(EventLoop *loop, std::vector<BlockDevice *> devs,
                const RaiznConfig &cfg);

    // volume.cc
    /// Sequential zone write; `data` empty = timing-only.
    void submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                      WriteFlags flags, IoCallback cb) override;
    void process_write(uint64_t lba, IoBuf data, uint32_t nsectors,
                       WriteFlags flags, IoCallback cb);
    /// `data` is a slice of the logical write's buffer (empty when
    /// timing-only).
    void submit_data_subio(uint32_t dev, uint32_t zone, uint64_t pba,
                           IoBuf data, uint32_t nsectors, uint64_t lba,
                           bool fua, std::shared_ptr<WriteCtx> ctx);
    void submit_parity_subio(uint32_t zone, uint64_t stripe, IoBuf parity,
                             bool fua, std::shared_ptr<WriteCtx> ctx);
    void log_partial_parity(uint32_t zone, uint64_t stripe,
                            uint64_t start_lba, uint64_t end_lba,
                            std::vector<uint8_t> delta, uint64_t lo_sector,
                            uint64_t hi_sector,
                            std::shared_ptr<WriteCtx> ctx);
    /**
     * Relocates one stripe unit into `dev`'s general metadata zone
     * (§4.3): a kRelocatedSu append plus the cached map entry that
     * shadows the home slot. A data unit is keyed by its LBA range
     * [key, key+nsectors); parity by its stripe's zs_key. The write
     * path's burned slots and scrub repairs both land here.
     */
    void relocate_unit(uint32_t dev, uint32_t zone, uint64_t key,
                       uint32_t nsectors, bool parity, IoBuf bytes,
                       bool durable, StatusCb done);
    void subio_done(std::shared_ptr<WriteCtx> ctx, Status status);
    /// Completion of a write's data, parity or FUA-flush sub-I/O on
    /// member `dev`: a failed member's error degrades the write
    /// instead of failing it (§4.2).
    IoCallback member_done(std::shared_ptr<WriteCtx> ctx, uint32_t dev);
    /// Completion of a write's metadata append (partial parity or
    /// relocation); ends trace span `tok` (0: none).
    StatusCb md_done(std::shared_ptr<WriteCtx> ctx, uint64_t tok);
    void finish_write(std::shared_ptr<WriteCtx> ctx);
    void start_fua_flush_phase(std::shared_ptr<WriteCtx> ctx);
    StripeBuffer *get_buffer(uint32_t zone, uint64_t stripe);
    void open_zone_state(uint32_t zone);
    void drain_waiters(uint32_t zone);
    void persist_gen_block(uint32_t block);

    // read path (volume.cc); `treq` is the trace correlation id
    // (0 when tracing is detached).
    /// Reads each extent from its member, split into runs at
    /// relocations; failed members and CRC mismatches reconstruct.
    void read_extents(uint64_t lba, uint32_t nsectors, uint64_t treq,
                      IoCallback cb);
    void read_extent_degraded(const PhysExtent &ext, DataCb cb);
    /// Recovers sectors [lo, hi) of unit `pos` (-1: parity) from the
    /// survivors; `cause` tags their reads (parity, or rebuild).
    void reconstruct_stripe_unit(uint32_t zone, uint64_t stripe, int pos,
                                 uint64_t lo, uint64_t hi, obs::Cause cause,
                                 DataCb cb);

    // recovery.cc
    struct RecoveryCtx;
    Status run_recovery();
    Status replay_md_logs(RecoveryCtx &rc,
                          const std::vector<MdManager::DeviceLog> &logs);
    Status recover_logical_zone(uint32_t zone, RecoveryCtx &rc);
    Status complete_partial_reset(uint32_t zone);
    Status repair_or_remap(uint32_t zone, std::vector<uint64_t> written);
    Status rebuild_tail_buffer(uint32_t zone);
    Status rebuild_physical_zone(uint32_t dev, uint32_t zone,
                                 const ZoneRebuildRecord *resume);
    Status persist_superblocks();

    // rebuild.cc — the rebuild policy: resume verification and the
    // durable checkpoint, the written stripe units of non-empty zones,
    // target writes past the retrier.
    bool rebuild_zones(uint32_t dev,
                       std::vector<uint32_t> *out) const override;
    void rebuild_prepare(uint32_t dev, StatusCb cb) override;
    void rebuild_zone_open(uint32_t dev, uint32_t zone,
                           std::function<void(Status, uint64_t)> cb) override;
    RebuildExtent rebuild_extent(uint32_t dev, uint32_t zone,
                                 uint64_t s) const override;
    void rebuild_read(uint32_t dev, uint32_t zone, uint64_t s,
                      const RebuildExtent &e, DataCb cb) override;
    void rebuild_write(uint32_t dev, uint32_t zone, IoRequest req,
                       IoCallback cb) override;
    void rebuild_zone_done(uint32_t dev, uint32_t zone, Status s,
                           StatusCb cb) override;
    void rebuild_finish(uint32_t dev, Status s, StatusCb cb) override;
    Status rewrite_replicated_md(uint32_t dev);
    /// Durably logs rebuild progress to every surviving device;
    /// `durable`, when set, runs once every append has completed.
    void persist_rebuild_checkpoint(uint32_t dev, uint32_t state,
                                    uint32_t cur_zone,
                                    std::function<void()> durable = {});
    /// Current checkpoint image (metadata-GC snapshot + persist).
    std::vector<uint8_t> encode_current_rebuild_checkpoint(
        uint32_t dev, uint32_t state, uint32_t cur_zone) const;
    /// Re-logs the folded tail-stripe partial parity of `zone` to the
    /// rebuild target when the target is its parity holder.
    void relog_tail_pp(uint32_t dev, uint32_t zone);
    /// Expected physical fill (sectors) of `dev`'s copy of `zone` for a
    /// logical fill of `fill` sectors (recovery, resume verification).
    uint64_t expected_phys_fill(uint32_t dev, uint32_t zone,
                                uint64_t fill) const;
    /// Health-monitor escalation edges land here: suspect and
    /// fail-slow counters, then the base's failover.
    void on_health_event(uint32_t dev, HealthEvent ev) override;
    /// Points the md manager at the promoted spare in slot `dev`.
    void on_spare_promoted(uint32_t dev) override;
    /// Writes to a volume past its one tolerated failure: kReadOnly.
    Status write_refusal() const override;

    // scrub.cc — ZonedArray's scrub walker over RAIZN's stripes:
    // complete home-placed stripes of healthy zones, up to the minimum
    // member wp. Repairs are relocated stripe units.
    bool scrub_candidates(std::vector<ScrubStripe> *out) const override;
    bool scrub_plan(const ScrubStripe &s, ScrubPlan *plan) override;
    bool scrub_repair(const ScrubStripe &s, int role, IoBuf bytes) override;

    // shared helpers
    /// True when (dev) cannot serve IO for `zone`: physically failed,
    /// or marked failed and the zone has not been rebuilt yet.
    bool dev_unavailable(uint32_t dev, uint32_t zone) const;
    /// True when `dev`'s data zones must be treated as absent during
    /// recovery: physically failed, or it is the rebuild target (a
    /// promoted spare is live but holds no trusted data yet).
    bool dev_down(uint32_t dev) const
    {
        return devs_[dev]->failed() || is_marked_failed(dev);
    }
    MdAppend make_pp_append(uint32_t zone, uint64_t stripe,
                            uint64_t start_lba, uint64_t end_lba,
                            uint64_t lo_sector, uint64_t hi_sector,
                            std::vector<uint8_t> delta) const;
    std::vector<MdAppend> snapshot_for_gc(uint32_t dev, MdZoneRole role);
    bool data_mode_store() const { return store_data_; }
    IoResult dev_sync(uint32_t dev, IoRequest req);
    // dev_submit / escalate_dev_error are inherited from ZonedArray:
    // the data path routes through the retrier/watchdog; recovery,
    // rebuild, and metadata appends keep their direct paths.

    // ZonedArray hooks.
    std::string metric_prefix() const override { return "raizn"; }
    /// Historical namespace: per-device metrics predate the interface.
    std::string dev_metric_prefix() const override { return "zns"; }
    void link_stats_hook(obs::MetricsRegistry &reg) override;
    void on_resilience_changed() override;

    RaiznConfig cfg_;
    std::unique_ptr<Layout> layout_;
    std::unique_ptr<MdManager> md_;
    Superblock sb_;
    GenCounterTable gen_;
    uint64_t gen_update_seq_ = 1;

    std::vector<LZone> zones_;
    RelocationMap reloc_;
    BurnedRanges burned_;
    /// Parity stripe units displaced into metadata zones, keyed by
    /// (zone << 32 | stripe).
    std::unordered_map<uint64_t, Relocation> parity_reloc_;

    /// In-memory index of partial parity log entries per (zone,stripe):
    /// needed for degraded reconstruction of incomplete stripes.
    struct PpRecord {
        uint64_t start_lba;
        uint64_t end_lba;
        uint64_t lo_sector;
        std::vector<uint8_t> delta; ///< cached (empty in timing mode)
    };
    std::map<uint64_t, std::vector<PpRecord>> pp_index_;

    /// Write sub-I/Os in flight. Their completions capture only
    /// (this, slot), which fits std::function's inline buffer.
    struct SubIo {
        std::shared_ptr<WriteCtx> ctx;
        uint32_t dev = 0; ///< member_done: the member written
        uint64_t tok = 0; ///< md_done: the trace span to end
    };
    Slab<SubIo> sub_ios_;

    /// Member reads of read_extents in flight, completed the same way.
    struct ExtentRead {
        StripeGather::Source done; ///< the read's gather
        PhysExtent sub; ///< the extent read
    };
    Slab<ExtentRead> extent_reads_;
    /// Completion of the read of `sub`, landing `at` bytes into `g`'s
    /// unit.
    IoCallback extent_read_done(StripeGather &g, const PhysExtent &sub,
                                size_t at);

    VolumeStats stats_;
    uint32_t max_open_zones_ = 0;
    uint32_t open_zones_ = 0;
    bool store_data_ = true;
    DebugFault debug_fault_ = DebugFault::kNone;

    // Checkpointed rebuild. (The spare, lifecycle policy, throttle, the
    // rebuild walk and the resilience/observability layers live in
    // ZonedArray.)
    int pending_rebuild_dev_ = -1; ///< from a mount-time checkpoint
    std::vector<bool> ckpt_rebuilt_; ///< checkpointed zone bitmap
};

} // namespace raizn
