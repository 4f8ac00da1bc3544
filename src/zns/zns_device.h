/**
 * @file
 * Emulated NVMe ZNS SSD. Implements the zone state machine, sequential
 * write rule, zone append, open/active zone limits, a volatile write
 * cache with FUA/PREFLUSH/flush semantics, deterministic service timing,
 * and power-loss / device-failure injection.
 *
 * Persistence model: zone writes are sequential, so the volatile cache
 * per zone is exactly the LBA range [durable_wp, wp). On power loss the
 * surviving write pointer lands in that range, at atomic-write
 * granularity, chosen by the fault-injection policy.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/slab.h"
#include "zns/block_device.h"
#include "zns/page_store.h"
#include "zns/timing_model.h"

namespace raizn {

/// Construction parameters for one emulated ZNS device.
struct ZnsDeviceConfig {
    uint32_t nzones = 32;
    uint64_t zone_size = 4096; ///< sectors per zone (LBA span), 16 MiB
    /// Writable sectors per zone; 0 means equal to zone_size. The
    /// paper's device has capacity (1077 MiB) below its zone size.
    uint64_t zone_capacity = 0;
    uint32_t max_open_zones = 14; ///< paper's device limit (§2.1)
    uint32_t max_active_zones = 14;
    uint32_t max_append_sectors = 256;
    uint32_t atomic_write_sectors = 16; ///< 64 KiB device-atomic writes
    DataMode data_mode = DataMode::kStore;
    TimingParams timing = TimingParams::zns();
    std::string name = "znsdev";
};

/// How much volatile-cache data survives a power cut.
struct PowerLossSpec {
    enum class Policy {
        kDropCache, ///< only durable data survives (adversarial)
        kKeepAll, ///< everything submitted survives (clean shutdown)
        kRandom, ///< per-zone random survival at atomic granularity
    };
    Policy policy = Policy::kDropCache;
    uint64_t seed = 1;
};

class ZnsDevice;

/**
 * One device command completion as observed by a trace hook. The
 * crash-point explorer counts these events to enumerate power-cut
 * injection boundaries and hashes them to verify deterministic replay.
 */
struct ZnsTraceEvent {
    const ZnsDevice *dev = nullptr;
    IoOp op = IoOp::kRead;
    uint64_t slba = 0;
    uint64_t lba = 0; ///< placement LBA (differs from slba for appends)
    uint32_t nsectors = 0;
    bool fua = false;
    bool preflush = false;
    bool ok = false;
    Tick tick = 0;
};

class ZnsDevice : public BlockDevice
{
  public:
    using TraceFn = std::function<void(const ZnsTraceEvent &)>;

    ZnsDevice(EventLoop *loop, ZnsDeviceConfig config);

    const DeviceGeometry &geometry() const override { return geom_; }
    const DeviceStats &stats() const override { return stats_; }
    DataMode data_mode() const override { return config_.data_mode; }
    const std::string &name() const { return config_.name; }

    void submit(IoRequest req, IoCallback cb) override;
    Result<ZoneInfo> zone_info(uint32_t zone_index) const override;

    bool failed() const override { return failed_; }
    void fail() override { failed_ = true; }

    /**
     * Simulates power loss: applies the survival policy to every zone's
     * volatile cache and invalidates outstanding completions. The host
     * must treat the device as rebooted afterwards.
     */
    void power_cut(const PowerLossSpec &spec);

    /**
     * Binds the device to a (possibly new) event loop after power_cut,
     * resetting service-timing state. Durable contents are preserved.
     */
    void reattach(EventLoop *loop);

    /// Replaces the device with a factory-fresh one (rebuild target).
    void replace();

    /**
     * Test hook: silently corrupts `nsectors` of stored media starting
     * at `lba` (XORs bytes with a pattern derived from `seed`). Models
     * latent sector corruption; the device keeps serving the corrupted
     * bytes without error, which is what scrubbing exists to catch.
     * No-op in timing-only mode and on sectors whose page was never
     * written (they keep reading as zeros).
     */
    void corrupt(uint64_t lba, uint32_t nsectors, uint64_t seed);

    /// Zone index containing `lba`.
    uint32_t zone_of(uint64_t lba) const
    {
        return static_cast<uint32_t>(lba / geom_.zone_size);
    }

    /// Count of zones currently in an open state.
    uint32_t open_zone_count() const { return open_count_; }
    uint32_t active_zone_count() const { return active_count_; }

    /// Host bytes held by stored payload pages (0 in timing-only mode).
    uint64_t resident_bytes() const;

    /// Point-in-time zone-state counts (timeline gauges).
    struct ZoneCensus {
        uint32_t empty = 0;
        uint32_t open = 0; ///< implicit + explicit
        uint32_t closed = 0;
        uint32_t full = 0;
        uint32_t other = 0; ///< read-only / offline
    };
    ZoneCensus zone_census() const;

    /**
     * Installs a completion trace hook (pass nullptr to remove). Fires
     * as a command completes — after its durability/state effects have
     * applied, immediately before the host callback — so a power cut
     * injected at the hook's boundary sees exactly the device state the
     * host was about to be told about. Completions invalidated by an
     * earlier power cut never fire the hook.
     */
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  private:
    /// State mutation applied at command completion (durability marks,
    /// resets, finishes). Runs only if no power cut intervened.
    using Apply = std::function<void()>;

    struct Zone {
        Zone(uint64_t start, uint64_t cap_bytes)
            : wp(start), durable_wp(start), data(cap_bytes)
        {
        }

        ZoneState state = ZoneState::kEmpty;
        uint64_t wp; ///< absolute next-writable LBA (submit-time)
        uint64_t durable_wp; ///< survives power loss
        uint64_t last_use = 0; ///< for implicit-open LRU eviction
        PageStore data; ///< payload, capacity bytes (kStore mode)
    };
    /// A completion parked until its event fires; the event captures
    /// only (this, slot, generation).
    struct Pending {
        IoCallback cb;
        Apply apply;
        IoResult result;
        ZnsTraceEvent tev;
    };

    void complete(Tick when, IoCallback cb, IoResult result,
                  Apply apply = nullptr, ZnsTraceEvent tev = {});
    void fire(uint32_t slot, uint32_t gen);
    Status validate_write(const Zone &z, uint64_t slba,
                          uint32_t nsectors) const;
    void transition_open(Zone &z, bool explicit_open);
    Status ensure_open_slot(Zone &z);
    void close_zone(Zone &z, ZoneState target);
    void store_data(Zone &z, uint64_t slba, const IoRequest &req);
    std::vector<uint8_t> load_data(uint64_t slba, uint32_t nsectors) const;
    void make_durable_upto(Zone &z, uint64_t lba);
    std::vector<uint64_t> snapshot_wps() const;
    void apply_flush_snapshot(const std::vector<uint64_t> &wps);
    void do_reset(Zone &z);

    Zone &zone_at(uint64_t lba);
    uint64_t zone_start(const Zone &z) const;
    uint64_t zone_cap_end(const Zone &z) const;

    EventLoop *loop_;
    ZnsDeviceConfig config_;
    DeviceGeometry geom_;
    DeviceStats stats_;
    std::unique_ptr<TimingModel> timing_;
    std::vector<Zone> zones_;
    uint32_t open_count_ = 0;
    uint32_t active_count_ = 0;
    uint64_t use_clock_ = 0;
    /// Completions in flight. A power cut or replace() releases them
    /// all, so their events find a stale generation and drop.
    Slab<Pending> pending_;
    bool failed_ = false;
    TraceFn trace_;
};

} // namespace raizn
