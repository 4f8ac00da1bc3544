/**
 * @file
 * Byte-provenance ledger: the single source of truth for *where device
 * bytes come from*. Devices record every counted command into a
 * (cause x device x zone) cell at the exact points where their
 * DeviceStats counters move, so ledger totals and device counters are
 * structurally tied together — which is what makes the conservation
 * audit meaningful: for every attached device,
 *
 *     delta(DeviceStats) == sum over causes of delta(ledger cells)
 *     and no cell sits in the kUntagged bucket.
 *
 * A violation means a sub-I/O reached a device without a cause tag
 * (new issuing site missed the taxonomy) or bypassed the recording
 * points (new device path), both of which should fail loudly rather
 * than skew the attribution.
 *
 * On top of the cells the ledger derives the paper's overhead story:
 * write/read amplification factors (total device bytes / acked user
 * bytes), a per-cause amplification breakdown, and per-zone lifetime
 * churn heatmaps (CSV/JSON). Per-cause byte totals link into a
 * MetricsRegistry as counters, so the Timeline derives per-cause byte
 * rates for free and the anomaly rules can watch them; an
 * obs::Session refreshes the `ledger.waf_milli` / `ledger.raf_milli`
 * gauges before each timeline row.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/cause.h"

namespace raizn {
class BlockDevice;
enum class IoOp : uint8_t;
} // namespace raizn

namespace raizn::obs {

class MetricsRegistry;
class Gauge;

/// One (cause x device x zone) accumulation cell, in sectors/ops.
struct LedgerCell {
    uint64_t write_sectors = 0; ///< writes + appends
    uint64_t read_sectors = 0;
    uint64_t write_ops = 0;
    uint64_t read_ops = 0;
    uint64_t flushes = 0;
    uint64_t zone_resets = 0;
    uint64_t zone_mgmt_ops = 0; ///< finish/open/close

    bool
    empty() const
    {
        return write_sectors == 0 && read_sectors == 0 && write_ops == 0 &&
            read_ops == 0 && flushes == 0 && zone_resets == 0 &&
            zone_mgmt_ops == 0;
    }
};

/// Conservation-audit outcome; summary() renders the violations.
struct LedgerAudit {
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
    std::string summary() const;
};

class IoLedger
{
  public:
    IoLedger() = default;
    IoLedger(const IoLedger &) = delete;
    IoLedger &operator=(const IoLedger &) = delete;

    // ---- Device binding --------------------------------------------
    /**
     * Binds device slot `dev` to `bd`: sizes the zone axis from the
     * device geometry and snapshots its DeviceStats as the audit
     * baseline. Call before the device sees ledger-relevant traffic
     * (attaching later is fine for WAF — the audit only covers deltas
     * since the snapshot). Does NOT install the back-pointer; use
     * BlockDevice::set_ledger (or ZonedArray::attach, which
     * does both ends for every member).
     */
    void attach_device(uint32_t dev, const BlockDevice *bd);

    /**
     * Re-baselines slot `dev` after its counters restarted: a
     * factory-fresh replace() or a hot-spare promotion swapping in a
     * different BlockDevice. Ledger cells keep accumulating (lifetime
     * attribution survives the swap); only the audit marks move.
     */
    void rebind_device(uint32_t dev, const BlockDevice *bd);

    // ---- Hot-path recording (called by devices) --------------------
    /// Records one counted command. Must mirror the device's stats
    /// increments exactly: only validated commands, actual sector
    /// counts (e.g. the forwarded prefix of a torn write).
    void record(uint32_t dev, IoOp op, Cause cause, uint64_t slba,
                uint32_t nsectors);

    /// dev_submit funnel check: counts a request that reached the
    /// choke point untagged (the audit reports these by stage).
    void note_untagged_submit(const char *stage);

    // ---- Logical (acked user) byte accounting ----------------------
    /// Volume entry points call these as user ops ack successfully;
    /// the WAF/RAF denominators. GC-origin rewrites do not count.
    void note_user_write(uint32_t nsectors);
    void note_user_read(uint32_t nsectors);

    // ---- Derived views ---------------------------------------------
    uint64_t device_write_bytes() const; ///< all causes, all devices
    uint64_t device_read_bytes() const;
    uint64_t cause_write_bytes(Cause c) const;
    uint64_t cause_read_bytes(Cause c) const;
    uint64_t user_write_bytes() const { return logical_.write_bytes; }
    uint64_t user_read_bytes() const { return logical_.read_bytes; }
    uint64_t untagged_ops() const;

    /// Write-amplification factor: device write bytes / acked user
    /// write bytes (0 when no user writes acked yet).
    double waf() const;
    /// Read-amplification factor, same shape for reads.
    double raf() const;
    /// This cause's contribution to the WAF (cause bytes / user bytes).
    double waf_component(Cause c) const;

    /// Aligned per-cause table: bytes, share, amplification component.
    std::string breakdown_table() const;
    /// "cause,write_bytes,read_bytes,ops,waf_component" rows.
    std::string breakdown_csv() const;

    /// Zone-churn heatmap: one row per non-empty (device, zone, cause)
    /// cell — pivot on (dev, zone) for lifetime churn, on zone_resets
    /// for the reset heatmap.
    std::string heatmap_csv() const;

    /// Full export: totals, WAF/RAF, per-cause breakdown, audit state.
    std::string to_json() const;

    // ---- Conservation audit ----------------------------------------
    /// Compares every attached device's DeviceStats delta (since
    /// attach/rebind) against the ledger's per-device cell deltas and
    /// checks the untagged bucket is empty.
    LedgerAudit audit() const;

    // ---- Observability wiring --------------------------------------
    /**
     * Links per-cause byte/op totals as counters under
     * "ledger.cause.<name>.*", the logical byte counters under
     * "ledger.user.*", "ledger.untagged.ops", and creates the
     * "ledger.waf_milli" / "ledger.raf_milli" gauges. Call before
     * Timeline::start() so the columns exist.
     */
    void link_metrics(MetricsRegistry *reg);

    /// Refreshes the WAF/RAF gauges now (probe body; also callable
    /// directly before a registry export).
    void refresh_gauges();

  private:
    /// Per-cause aggregate totals. Stable storage: link_metrics hands
    /// out pointers into these fields.
    struct CauseAgg {
        uint64_t write_bytes = 0;
        uint64_t read_bytes = 0;
        uint64_t ops = 0;
    };

    struct DevLedger {
        const BlockDevice *bd = nullptr;
        uint64_t zone_size = 0; ///< 0: single-zone axis (conventional)
        uint32_t nzones = 1;
        /// Dense cells, [zone * kNumCauses + cause].
        std::vector<LedgerCell> cells;
        /// Audit baseline: device counters at attach/rebind...
        uint64_t base_sectors_written = 0;
        uint64_t base_sectors_read = 0;
        uint64_t base_write_ops = 0; ///< writes + appends
        uint64_t base_read_ops = 0;
        uint64_t base_flushes = 0;
        uint64_t base_zone_resets = 0;
        /// ...and the ledger's own per-device totals at the same moment.
        LedgerCell mark;
        LedgerCell total; ///< running per-device sum across cells
    };

    LedgerCell &cell(DevLedger &d, uint64_t slba, Cause c);
    void snapshot_baseline(DevLedger &d);

    std::vector<DevLedger> devs_;
    CauseAgg agg_[kNumCauses];
    struct {
        uint64_t write_bytes = 0;
        uint64_t read_bytes = 0;
    } logical_;
    uint64_t untagged_submits_ = 0;
    /// Untagged-submit counts keyed by trace stage, so the audit can
    /// name the issuing site that missed the taxonomy.
    std::map<std::string, uint64_t> untagged_stages_;
    /// waf()/raf() in fixed-point milli units, refreshed by the probe
    /// (registry gauges are integers).
    uint64_t waf_milli_ = 0;
    uint64_t raf_milli_ = 0;
    Gauge *waf_gauge_ = nullptr;
    Gauge *raf_gauge_ = nullptr;
};

} // namespace raizn::obs
