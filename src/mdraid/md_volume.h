/**
 * @file
 * mdraid-like RAID-5 logical volume over conventional (block) SSDs:
 * the baseline the paper compares RAIZN against (§2.2, §6). Implements
 * chunked striping with rotating parity, a stripe cache that avoids
 * read-modify-write reads on partial writes, degraded reads/writes,
 * and whole-device resync after replacement. Configured without a
 * journal, exactly as in the paper's evaluation.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "array/zoned_array.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "mdraid/stripe_cache.h"
#include "zns/block_device.h"

namespace raizn {

struct MdVolumeConfig {
    uint32_t chunk_sectors = 16; ///< 64 KiB chunks ("stripe units")
    uint64_t stripe_cache_bytes = 128 * kMiB; ///< md maximum (§6)
};

struct MdVolumeStats {
    uint64_t logical_reads = 0;
    uint64_t logical_writes = 0;
    uint64_t sectors_read = 0;
    uint64_t sectors_written = 0;
    uint64_t rmw_reads = 0; ///< read-modify-write preread sub-IOs
    uint64_t full_stripe_writes = 0;
    uint64_t partial_stripe_writes = 0;
    uint64_t degraded_reads = 0;
    uint64_t resynced_sectors = 0;
    uint64_t io_retries = 0; ///< transparent transient-error retries
    uint64_t io_timeouts = 0; ///< watchdog deadline expirations
    uint64_t dev_errors = 0; ///< device errors after retry exhaustion
    uint64_t auto_failovers = 0; ///< health-driven automatic failovers
    uint64_t spares_promoted = 0; ///< hot spares swapped into the array
    uint64_t resync_throttle_stalls = 0; ///< resync IOs delayed by the
                                         ///< token bucket

    /// Name/value enumeration — single source of truth for dump() and
    /// metrics-registry linkage (obs::link_stats).
    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("logical_reads", logical_reads);
        fn("logical_writes", logical_writes);
        fn("sectors_read", sectors_read);
        fn("sectors_written", sectors_written);
        fn("rmw_reads", rmw_reads);
        fn("full_stripe_writes", full_stripe_writes);
        fn("partial_stripe_writes", partial_stripe_writes);
        fn("degraded_reads", degraded_reads);
        fn("resynced_sectors", resynced_sectors);
        fn("io_retries", io_retries);
        fn("io_timeouts", io_timeouts);
        fn("dev_errors", dev_errors);
        fn("auto_failovers", auto_failovers);
        fn("spares_promoted", spares_promoted);
        fn("resync_throttle_stalls", resync_throttle_stalls);
    }
};

class MdVolume : public ZonedArray
{
  public:
    MdVolume(EventLoop *loop, std::vector<BlockDevice *> devs,
             MdVolumeConfig cfg);
    ~MdVolume() override;

    RaidMode mode() const override { return RaidMode::kMdraid; }
    uint32_t fault_tolerance() const override { return 1; }
    /// Conventional devices: random-access, no zones.
    bool zoned() const override { return false; }
    uint64_t capacity() const override { return capacity_; }
    uint32_t chunk_sectors() const { return cfg_.chunk_sectors; }
    uint64_t stripe_sectors() const { return stripe_sectors_; }

    void read(uint64_t lba, uint32_t nsectors, IoCallback cb) override;
    void flush(IoCallback cb) override;

    using ZonedArray::set_resilience;
    /// Legacy knob form; same semantics as the ResilienceConfig one.
    void set_resilience(const RetryPolicy &retry,
                        const HealthConfig &health = HealthConfig{})
    {
        set_resilience(ResilienceConfig{retry, health});
    }

    // rebuild_device (inherited) resyncs a replaced device: it
    // reconstructs and rewrites the ENTIRE device address space,
    // regardless of how much user data exists — mdraid cannot tell
    // valid data apart (§6.2, Fig. 12).

    // attach (inherited) links MdVolumeStats under "mdraid.*",
    // per-device DeviceStats + latency histograms under
    // "mdraid.dev<i>.*"; stage spans ("md.write", "md.rmw_read",
    // "md.chunk_write", "md.parity") go to the trace. Its timeline
    // gauges: per-device FTL state under "mdraid.dev<i>.ftl.*"
    // (free_blocks, op_used_pct, gc_active) for members that are
    // conventional devices — the over-provisioning burn-down behind
    // Fig. 10's collapse — plus the stripe-cache occupancy under
    // "mdraid.gauge.cache_stripes".

    const MdVolumeStats &stats() const { return stats_; }
    const StripeCache &cache() const { return *cache_; }

    // Address math (exposed for tests).
    uint32_t parity_dev(uint64_t stripe) const;
    uint32_t data_dev(uint64_t stripe, uint32_t k) const;
    int data_pos_of_dev(uint64_t stripe, uint32_t dev) const;

  private:
    struct WriteCtx;

    void install_timeline(obs::Timeline *tl) override;

    /// Random-access write (RAID-5 allows overwrites anywhere). md has
    /// no FUA/PREFLUSH distinction (configured journal-less), so the
    /// flags are ignored.
    void submit_write(uint64_t lba, uint32_t nsectors, IoBuf data,
                      WriteFlags flags, IoCallback cb) override;
    /// `data` is the stripe's slice of the logical write's buffer.
    void process_stripe_write(uint64_t stripe, uint64_t lo, uint64_t hi,
                              IoBuf data,
                              std::shared_ptr<WriteCtx> ctx);
    void write_chunks(uint64_t stripe, uint64_t lo, uint64_t hi,
                      const IoBuf &data, const IoBuf &parity,
                      std::shared_ptr<WriteCtx> ctx);
    void read_chunk(uint64_t stripe, uint32_t k, uint64_t lo, uint64_t hi,
                    DataCb cb, const char *trace_stage = nullptr,
                    uint64_t treq = 0,
                    obs::Cause cause = obs::Cause::kUserData);
    void reconstruct_chunk(uint64_t stripe, int pos, uint64_t lo,
                           uint64_t hi, DataCb cb);
    /// True when `dev` cannot serve IO; a member found dead is marked
    /// failed first.
    bool member_down(uint32_t dev);
    uint64_t chunk_pba(uint64_t stripe) const;
    bool store_data() const { return store_data_; }
    // dev_submit / escalate_dev_error are inherited from ZonedArray;
    // all device IO funnels through the retrier.

    // resync.cc — the rebuild policy: every chunk of the replacement,
    // XOR-reconstructed, booked as resync traffic.
    bool rebuild_zones(uint32_t dev,
                       std::vector<uint32_t> *out) const override;
    void rebuild_zone_open(uint32_t dev, uint32_t zone,
                           std::function<void(Status, uint64_t)> cb) override;
    RebuildExtent rebuild_extent(uint32_t dev, uint32_t zone,
                                 uint64_t stripe) const override;
    void rebuild_read(uint32_t dev, uint32_t zone, uint64_t stripe,
                      const RebuildExtent &e, DataCb cb) override;
    void rebuild_write(uint32_t dev, uint32_t zone, IoRequest req,
                       IoCallback cb) override;
    obs::Cause rebuild_cause() const override { return obs::Cause::kResync; }

    // ZonedArray hooks.
    std::string metric_prefix() const override { return "mdraid"; }
    void link_stats_hook(obs::MetricsRegistry &reg) override;
    /// Historical: mdraid never exposed per-device health counters.
    bool link_health_metrics() const override { return false; }

    MdVolumeConfig cfg_;
    uint64_t stripe_sectors_;
    uint64_t capacity_;
    std::unique_ptr<StripeCache> cache_;
    MdVolumeStats stats_;
    bool store_data_;
};

} // namespace raizn
