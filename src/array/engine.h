/**
 * @file
 * ZonedEngine: the generic multi-mode RAID engine over ZNS devices,
 * implementing the classic levels behind the ZonedArray interface —
 * RAID-0 (stripe, no redundancy), RAID-1 (zone mirrors), RAID-5/6
 * (rotating single/dual parity over zones), RAID-10 (mirror pairs,
 * striped), and a per-zone "auto" mode that mirrors hot zones and
 * parity-protects cold ones.
 *
 * Layout: the last kMdZonesPerDevice physical zones of every member
 * hold the array's metadata log, the same MdManager log RAIZN keeps
 * (general log, parity-log zone, swap zone; checkpoint-and-swap GC).
 * Per-zone state records (reset intents/completions, auto-mode kind
 * decisions, rebuild re-join markers) are appended to every member's
 * general log. Logical zone z is physical zone z on every member. A
 * stripe occupies the same su_sectors-row window on every member, with
 * left-symmetric parity rotation for RAID-5/6.
 *
 * Crash guarantees vs the paper's RaiznVolume: the engine keeps tail
 * (incomplete) stripe parity in memory only, so degraded reads of open
 * stripes survive a crash only for RAIZN (partial-parity log). The
 * engine's durability contract is the standard one — acked FUA/flushed
 * data is readable after power loss on a healthy array; redundant
 * modes additionally serve it under allowed device failures at
 * runtime. Zones recovered non-empty at mount are frozen (read-only
 * until reset).
 */
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "array/crc_catalog.h"
#include "array/md_manager.h"
#include "array/zoned_array.h"

namespace raizn {

struct EngineConfig {
    RaidMode mode = RaidMode::kRaid5;
    uint32_t su_sectors = 16; ///< stripe-unit rows per chunk
    /// auto mode: a zone is "hot" (mirrored) once its reset generation
    /// reaches this count; colder zones get parity.
    uint64_t auto_hot_resets = 2;
};

/// Counters exposed for tests and the cross-mode fault sweep.
struct EngineStats {
    uint64_t logical_reads = 0;
    uint64_t logical_writes = 0;
    uint64_t sectors_read = 0;
    uint64_t sectors_written = 0;
    uint64_t parity_writes = 0; ///< P stripe-unit writes issued
    uint64_t q_parity_writes = 0; ///< Q stripe-unit writes (RAID-6)
    uint64_t flushes = 0;
    uint64_t fua_writes = 0;
    uint64_t fua_dependency_flushes = 0; ///< flushes forced by FUA acks
    uint64_t zone_resets = 0;
    uint64_t zone_finishes = 0;
    uint64_t wal_appends = 0; ///< metadata-log zone records written
    uint64_t degraded_reads = 0;
    uint64_t reconstructed_sectors = 0;
    uint64_t io_retries = 0; ///< device commands retried after backoff
    uint64_t io_timeouts = 0; ///< watchdog deadline expirations
    uint64_t dev_errors = 0; ///< persistent (post-retry) device errors
    uint64_t crc_mismatches = 0; ///< reads failing checksum validation
    uint64_t read_repairs = 0; ///< units re-served from redundancy
    uint64_t scrubbed_stripes = 0;
    uint64_t auto_failovers = 0; ///< health-driven failovers started
    uint64_t spares_promoted = 0;
    uint64_t zones_rebuilt = 0;
    uint64_t rebuild_throttle_stalls = 0; ///< rebuild steps delayed
    uint64_t auto_mirror_zones = 0; ///< auto-mode hot (mirror) decisions
    uint64_t auto_parity_zones = 0; ///< auto-mode cold (parity) decisions

    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("logical_reads", logical_reads);
        fn("logical_writes", logical_writes);
        fn("sectors_read", sectors_read);
        fn("sectors_written", sectors_written);
        fn("parity_writes", parity_writes);
        fn("q_parity_writes", q_parity_writes);
        fn("flushes", flushes);
        fn("fua_writes", fua_writes);
        fn("fua_dependency_flushes", fua_dependency_flushes);
        fn("zone_resets", zone_resets);
        fn("zone_finishes", zone_finishes);
        fn("wal_appends", wal_appends);
        fn("degraded_reads", degraded_reads);
        fn("reconstructed_sectors", reconstructed_sectors);
        fn("io_retries", io_retries);
        fn("io_timeouts", io_timeouts);
        fn("dev_errors", dev_errors);
        fn("crc_mismatches", crc_mismatches);
        fn("read_repairs", read_repairs);
        fn("scrubbed_stripes", scrubbed_stripes);
        fn("auto_failovers", auto_failovers);
        fn("spares_promoted", spares_promoted);
        fn("zones_rebuilt", zones_rebuilt);
        fn("rebuild_throttle_stalls", rebuild_throttle_stalls);
        fn("auto_mirror_zones", auto_mirror_zones);
        fn("auto_parity_zones", auto_parity_zones);
    }
};

class ZonedEngine : public ZonedArray
{
  public:
    /// Logical geometry of an engine array.
    struct Geometry {
        uint32_t nzones = 0; ///< logical zones
        uint64_t zone_cap = 0; ///< logical sectors per zone, 0: too small
        uint64_t stripe_sectors = 0; ///< data sectors per stripe
    };
    /**
     * The logical geometry `cfg` gives over `ndev` members of geometry
     * `g`: every physical zone but the metadata zones, each holding
     * whole stripe-unit rows of data. Auto mode aligns the zone down
     * to the parity stripe so either per-zone kind fits it.
     */
    static Geometry geometry(const EngineConfig &cfg, uint32_t ndev,
                             const DeviceGeometry &g);

    /// Per-zone layout class (auto mode decides per generation).
    enum class ZoneKind : uint8_t {
        kStripe0, ///< striped, no redundancy (RAID-0)
        kMirror, ///< full mirror on every member (RAID-1, hot auto)
        kMirrorPairs, ///< striped across mirror pairs (RAID-10)
        kParity, ///< rotating single parity (RAID-5, cold auto)
        kDualParity, ///< rotating P+Q (RAID-6)
    };

    /**
     * Formats a fresh array over `devs` (all zoned, identical
     * geometry, at least the mode's minimum member count; RAID-10
     * needs an even count). Devices must be factory-blank.
     */
    static Result<std::unique_ptr<ZonedEngine>>
    create(EventLoop *loop, std::vector<BlockDevice *> devs,
           const EngineConfig &cfg);

    /**
     * Mounts an existing array: marks members whose device failed,
     * replays the metadata log (rolling forward interrupted resets),
     * reconciles per-device write pointers into per-zone recovered
     * fills, and freezes every non-empty zone (read-only until reset).
     * Requires data-storing devices.
     */
    static Result<std::unique_ptr<ZonedEngine>>
    mount(EventLoop *loop, std::vector<BlockDevice *> devs,
          const EngineConfig &cfg);

    ~ZonedEngine() override;

    // ---- Identity / geometry ---------------------------------------
    RaidMode mode() const override { return cfg_.mode; }
    uint32_t fault_tolerance() const override
    {
        return raizn::fault_tolerance(cfg_.mode);
    }
    uint64_t capacity() const override
    {
        return static_cast<uint64_t>(nzones_) * zone_cap_;
    }
    uint32_t num_zones() const override { return nzones_; }
    uint64_t zone_capacity() const override { return zone_cap_; }
    Result<ZoneInfo> zone_info(uint32_t zone) const override;

    // ---- Data path -------------------------------------------------
    void read(uint64_t lba, uint32_t nsectors, IoCallback cb) override;
    void flush(IoCallback cb) override;
    void reset_zone(uint32_t zone, IoCallback cb) override;
    void finish_zone(uint32_t zone, IoCallback cb) override;

    // ---- Fault management ------------------------------------------
    /// True once more devices failed than the mode tolerates: IO
    /// touching lost chunks returns errors from then on.
    bool data_loss() const { return !within_tolerance(); }

    // ---- Introspection (crash oracle + tests) ----------------------
    const EngineStats &stats() const { return stats_; }
    const EngineConfig &config() const { return cfg_; }
    uint32_t su_sectors() const { return cfg_.su_sectors; }
    ZoneKind zone_kind(uint32_t zone) const;
    bool zone_kind_decided(uint32_t zone) const;
    uint64_t zone_gen(uint32_t zone) const;
    bool zone_frozen(uint32_t zone) const;
    bool zone_finished(uint32_t zone) const;
    /// Data stripe units per stripe for `zone`'s kind.
    uint32_t data_units(uint32_t zone) const;
    /// Member holding data unit `u` of stripe `stripe` (mirror kinds:
    /// the first mirror of the unit).
    uint32_t chunk_dev(uint32_t zone, uint64_t stripe, uint32_t u) const;
    /// Member holding P for the stripe, -1 for non-parity kinds.
    int parity_dev(uint32_t zone, uint64_t stripe) const;
    /// Member holding Q for the stripe, -1 unless dual parity.
    int q_dev(uint32_t zone, uint64_t stripe) const;
    /// Logical sectors of `zone` readable without member `down`
    /// (mirror kinds consult recovered per-member fills; parity kinds
    /// reconstruct at runtime, so the full fill is readable).
    uint64_t degraded_fill(uint32_t zone, uint32_t down) const;
    const MdManager &md_manager() const { return *md_; }

  protected:
    std::string metric_prefix() const override
    {
        return std::string(to_string(cfg_.mode));
    }
    void link_stats_hook(obs::MetricsRegistry &reg) override;
    void on_resilience_changed() override
    {
        md_->set_retrier(retrier_.get());
    }
    void on_spare_promoted(uint32_t dev) override
    {
        md_->replace_device(dev, devs_[dev]);
    }

  private:
    /**
     * In-memory accumulator for the open (tail) stripe of a
     * parity-protected zone: holds the stripe's data until parity is
     * computed and acknowledged, and serves degraded reads of sectors
     * whose parity is not on media yet. Volatile by design — this is
     * the write hole the paper's partial-parity log closes; see
     * DESIGN.md for the durability contract difference.
     */
    struct TailBuf {
        std::vector<uint8_t> data; ///< su * U sectors (store mode)
        uint64_t filled = 0; ///< stripe sectors submitted so far
        bool complete = false;
        uint32_t parity_pending = 0; ///< parity writes awaiting ack
    };

    struct WriteCtx;
    struct FlushBarrier;

    /// One MdType::kEngineZone record: a change to one zone's state.
    struct ZoneRecord {
        enum Op : uint32_t {
            kResetIntent = 1, ///< reset to `gen` decided; resets follow
            kResetDone = 2, ///< resets done; participants = live set
            kKind = 3, ///< auto mode: zone kind for this generation
            kJoin = 4, ///< rebuild re-validated `participants` bits
            kSnapshot = 5, ///< GC checkpoint of the whole zone state
        };
        uint32_t op = 0;
        uint32_t zone = 0;
        uint64_t gen = 0;
        uint64_t participants = 0;
        uint32_t kind = kNoKind; ///< kKind, and kSnapshot once decided
        /// kSnapshot: a reset to gen + 1 was under way.
        bool reset_pending = false;

        static constexpr uint32_t kNoKind = ~0u;
    };

    /// Per-(member, zone) submit queue: keeps writes (and reads, for
    /// read-after-write ordering) strictly sequential.
    struct Chain {
        bool busy = false;
        std::deque<std::pair<IoRequest, IoCallback>> q;
    };

    /// Logical zone descriptor.
    struct EZone {
        uint64_t fill = 0; ///< submitted logical sectors
        uint64_t gen = 0; ///< reset generation
        ZoneKind kind = ZoneKind::kParity;
        bool kind_decided = false; ///< auto: kind journaled for this gen
        bool finished = false;
        bool finish_pending = false;
        bool resetting = false;
        bool frozen = false; ///< recovered non-empty: read-only
        /// Members holding current-generation data (bit per slot);
        /// devices excluded from a degraded reset stay untrusted until
        /// a rebuild re-joins them.
        uint64_t participants = ~0ull;
        std::map<uint64_t, TailBuf> tails; ///< by stripe index
        CrcCatalog crc; ///< per logical sector (store mode)
        /// Mount only: per-member recovered extent — logical sectors
        /// for mirror kinds, physical rows otherwise.
        std::vector<uint64_t> rec_fill;
        /// Serializes the async prefix of zone ops (preflush barriers,
        /// auto-kind journaling, reset/finish sequences) so chunk
        /// issuance order matches logical order.
        std::deque<std::function<void(std::function<void()>)>> wq;
        bool wq_busy = false;
    };

    ZonedEngine(EventLoop *loop, std::vector<BlockDevice *> devs,
                const EngineConfig &cfg);

    // engine.cc — geometry and placement
    static Status validate(const std::vector<BlockDevice *> &devs,
                           const EngineConfig &cfg);
    ZoneKind fixed_kind() const; ///< kind for non-auto modes
    uint32_t units_of(ZoneKind k) const;
    /// Absolute device LBA of row `row` in logical zone `zone`.
    uint64_t dev_row_lba(uint32_t zone, uint64_t row) const;
    /// True when `dev` cannot serve IO for `zone` right now: down,
    /// untrusted (stale after an excluded reset), or the rebuild
    /// target for a zone not rebuilt yet.
    bool dev_down_for_zone(uint32_t dev, uint32_t zone) const;

    // engine.cc — submit plumbing
    void chain_submit(uint32_t dev, uint32_t zone, IoRequest req,
                      IoCallback cb);
    void chain_advance(uint32_t dev, uint32_t zone);
    /// Gather reads keep the per-zone chain order.
    void gather_submit(uint32_t dev, uint32_t zone, IoRequest req,
                       IoCallback cb) override;
    /// Appends an async step to the zone's op queue; the step receives
    /// a completion thunk it must invoke once issuance is done.
    void zone_enqueue(uint32_t zone,
                      std::function<void(std::function<void()>)> step);
    void zone_advance(uint32_t zone);
    uint64_t track_io();
    void untrack_io(uint64_t id);
    /// Waits for every currently-tracked data IO, then flushes all
    /// up members, then `cb`.
    void barrier_flush(IoCallback cb);
    void issue_barrier_devices(std::shared_ptr<FlushBarrier> b);

    // engine.cc — metadata log
    /// Appends `rec` durably to the general log of every up member,
    /// joined into `cb`.
    void log_zone(const ZoneRecord &rec, StatusCb cb);
    /// Appends `rec` durably to `dev`'s general log as a member of
    /// `join`.
    void log_to(uint32_t dev, MdAppend rec, MemberJoin &join);
    static MdAppend encode_zone_record(const ZoneRecord &rec);
    static bool decode_zone_record(const MdEntry &e, ZoneRecord *out);
    /// The GC checkpoint: one kSnapshot record per zone that is not in
    /// its formatted state.
    std::vector<MdAppend> snapshot_records() const;

    // engine.cc — write path
    void submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                      WriteFlags flags, IoCallback cb) override;
    void decide_zone_kind(uint32_t zone, std::function<void(Status)> cb);
    /// Synchronously enqueues the physical chunk writes for one
    /// logical write (data may be empty in timing mode); each chunk
    /// write carries a slice of `data`.
    void issue_write(uint32_t zone, uint64_t off, const IoBuf &data,
                     uint32_t nsectors, std::shared_ptr<WriteCtx> ctx);
    /// Accumulates `n` stripe sectors at stripe position `pos` into
    /// the zone's tail buffer; completes the stripe when full.
    void note_tail(uint32_t zone, uint64_t pos, uint32_t n,
                   const uint8_t *bytes);
    void complete_stripe(uint32_t zone, uint64_t stripe);
    /**
     * Writes P (and Q) of `stripe` from its tail buffer to each parity
     * member that can take it, the unwritten rows as zeros. With a
     * `seal` join (zone finish) the writes join it; otherwise an error
     * escalates. Each completion retires the tail once its last parity
     * write is back.
     */
    void write_parity(uint32_t zone, uint64_t stripe, MemberJoin *seal);
    void chunk_done(std::shared_ptr<WriteCtx> ctx, uint32_t dev,
                    const Status &s);
    void finish_write(std::shared_ptr<WriteCtx> ctx);

    // engine.cc — read path
    void read_segment(uint32_t zone, uint64_t off, uint32_t len,
                      DataCb cb);
    /// Reads rows [o, o+n) of data unit `u` in `stripe`, falling back
    /// to the tail buffer or parity reconstruction when the member is
    /// down or the payload fails CRC.
    void read_chunk(uint32_t zone, uint64_t stripe, uint32_t u,
                    uint64_t o, uint32_t n, DataCb cb);
    /// One replicated read: rows [row0, row0+n) of `zone`, checked
    /// against the catalog at logical offset `crc_off`.
    struct ReplicaRead {
        uint32_t zone;
        uint64_t row0;
        uint32_t n;
        uint64_t crc_off;
        const char *stage; ///< trace stage of the member reads
        std::vector<uint32_t> srcs; ///< live members, in try order
        /// Serves the read once every source failed (parity kinds:
        /// reconstruction); null fails it with kCorruption.
        std::function<void(DataCb)> fallback;
        DataCb cb;
    };
    /// Tries srcs[idx], then the next source on a failed read or a CRC
    /// mismatch. A read served by a later source counts a read repair.
    void read_replicas(std::shared_ptr<ReplicaRead> rr, size_t idx);
    /// Recovers rows [o, o+n) of data unit `u` from the survivors;
    /// `cause` tags the survivor reads (parity, or rebuild).
    void reconstruct_chunk(uint32_t zone, uint64_t stripe, uint32_t u,
                           uint64_t o, uint32_t n, obs::Cause cause,
                           DataCb cb);
    /// Members holding a replica of data unit `u` (placement only, no
    /// liveness filtering).
    std::vector<uint32_t> unit_devs(uint32_t zone, uint64_t stripe,
                                    uint32_t u) const;
    /// Filters `cands` down to members able to serve rows < `row_end`.
    std::vector<uint32_t> mirror_sources(uint32_t zone, uint64_t row_end,
                                         const std::vector<uint32_t> &cands)
        const;

    // engine_recover.cc — mount, rebuild policy, scrub policy
    Status run_mount();
    Status replay_log();
    Status recover_zone(uint32_t zone);
    /// Rebuild policy: the target's metadata zones formatted and given
    /// the zone snapshot first; every zone walked as a zone-queue step
    /// after a reset of the target's copy. Mirror zones copy
    /// kMirrorRebuildRows rows per unit from one intact copy; striped
    /// kinds rebuild one stripe per unit (mirror partner, P/Q, tail
    /// buffer or reconstruct_chunk). A rebuilt zone re-joins its
    /// participants with a kJoin record.
    bool rebuild_zones(uint32_t dev,
                       std::vector<uint32_t> *out) const override;
    void rebuild_prepare(uint32_t dev, StatusCb cb) override;
    void rebuild_zone_open(uint32_t dev, uint32_t zone,
                           std::function<void(Status, uint64_t)> cb) override;
    RebuildExtent rebuild_extent(uint32_t t, uint32_t zone,
                                 uint64_t unit) const override;
    void rebuild_read(uint32_t t, uint32_t zone, uint64_t unit,
                      const RebuildExtent &e, DataCb cb) override;
    void rebuild_write(uint32_t dev, uint32_t zone, IoRequest req,
                       IoCallback cb) override;
    void rebuild_zone_done(uint32_t dev, uint32_t zone, Status s,
                           StatusCb cb) override;
    void rebuild_finish(uint32_t dev, Status s, StatusCb cb) override;
    /// The unit of `stripe` target `t` holds: a data unit, P or Q
    /// (StripeGather roles), or none.
    int rebuild_role(uint32_t t, uint32_t zone, uint64_t stripe) const;
    /// First live member other than `t` holding data unit `u` of
    /// `stripe` through row `row_end`, UINT32_MAX when none does.
    uint32_t rebuild_source(uint32_t t, uint32_t zone, uint64_t stripe,
                            uint32_t u, uint64_t row_end) const;
    /// Re-joins `t` to the rebuilt zone and releases the zone queue.
    void rebuild_join(uint32_t t, uint32_t zone, Status s, StatusCb cb);
    /// Scrub policy: settled stripes of every zone kind (mirror rows,
    /// mirror pairs, raid0 chunks, full parity stripes off the tail),
    /// read below each member's recovered fill. Report-only.
    bool scrub_candidates(std::vector<ScrubStripe> *out) const override;
    bool scrub_plan(const ScrubStripe &s, ScrubPlan *plan) override;

    EngineConfig cfg_;
    uint32_t nzones_ = 0; ///< logical zones
    uint64_t zone_cap_ = 0; ///< logical sectors per zone
    uint64_t phys_cap_ = 0; ///< physical sectors per member zone
    bool store_data_ = true;

    std::vector<EZone> zones_;
    EngineStats stats_;
    std::unique_ptr<MdManager> md_; ///< the metadata log, every member

    // Per-(member, zone) sequential submit chains.
    std::map<uint64_t, Chain> chains_;

    // Flush barrier bookkeeping: every data-path device write gets an
    // id at enqueue time; a barrier snapshots the live set and fires
    // once the snapshot drains.
    uint64_t next_io_id_ = 1;
    std::set<uint64_t> inflight_ios_;
    std::vector<std::shared_ptr<FlushBarrier>> barriers_;

    // Rebuild policy state (the walk itself lives in ZonedArray).
    static constexpr uint64_t kMirrorRebuildRows = 32; ///< per unit
    std::function<void()> rebuild_release_; ///< open zone's queue step
};

} // namespace raizn
