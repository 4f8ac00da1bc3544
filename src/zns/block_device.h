/**
 * @file
 * Abstract asynchronous block/zoned device interface. Mirrors the subset
 * of the kernel block layer + NVMe ZNS command set that RAIZN uses:
 * read/write/append/flush plus zone management commands, with FUA and
 * PREFLUSH flags.
 *
 * Completions are delivered as events on the shared EventLoop, never
 * inline from submit(), matching asynchronous hardware.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/io_buf.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/cause.h"
#include "zns/zone.h"

namespace raizn {

namespace obs {
class IoLedger;
} // namespace obs

class EventLoop;

enum class IoOp : uint8_t {
    kRead,
    kWrite,
    kAppend, ///< zone append: slba = zone start, completion carries LBA
    kFlush, ///< persist the device's volatile write cache
    kZoneReset,
    kZoneFinish,
    kZoneOpen,
    kZoneClose,
};

constexpr std::string_view
to_string(IoOp op)
{
    switch (op) {
      case IoOp::kRead: return "READ";
      case IoOp::kWrite: return "WRITE";
      case IoOp::kAppend: return "APPEND";
      case IoOp::kFlush: return "FLUSH";
      case IoOp::kZoneReset: return "ZONE_RESET";
      case IoOp::kZoneFinish: return "ZONE_FINISH";
      case IoOp::kZoneOpen: return "ZONE_OPEN";
      case IoOp::kZoneClose: return "ZONE_CLOSE";
    }
    return "?";
}

/**
 * One device command. `data` is the payload for writes/appends; devices
 * in timing-only mode accept empty payloads for any length. The payload
 * is a shared IoBuf: copying a request shares its bytes, and a device
 * copies them into its store, never keeping the buffer.
 */
struct IoRequest {
    IoOp op = IoOp::kRead;
    uint64_t slba = 0; ///< start LBA (zone start for append / zone mgmt)
    uint32_t nsectors = 0; ///< length; 0 is valid for flush / zone mgmt
    bool fua = false; ///< forced unit access: durable at completion
    bool preflush = false; ///< flush cache before executing this command
    IoBuf data; ///< write payload (nsectors * kSectorSize)
    // Trace context (obs/trace.h): correlation id of the logical
    // request this command serves, and a static stage label. Purely
    // observational — devices never read these.
    uint64_t trace_req = 0;
    const char *trace_stage = nullptr;
    // Byte-provenance tag (obs/cause.h): the host-side activity this
    // command serves. Issuing sites must set it; devices record it
    // into the IoLedger alongside their stats counters, and the
    // conservation audit fails on any command still kUntagged.
    obs::Cause cause = obs::Cause::kUntagged;

    static IoRequest
    read(uint64_t slba, uint32_t nsectors)
    {
        return {IoOp::kRead, slba, nsectors, false, false, {}};
    }
    static IoRequest
    write(uint64_t slba, IoBuf payload, bool fua = false)
    {
        IoRequest r;
        r.op = IoOp::kWrite;
        r.slba = slba;
        r.nsectors = static_cast<uint32_t>(payload.size() / kSectorSize);
        r.fua = fua;
        r.data = std::move(payload);
        return r;
    }
    /// Timing-only write carrying no payload bytes.
    static IoRequest
    write_len(uint64_t slba, uint32_t nsectors, bool fua = false)
    {
        return {IoOp::kWrite, slba, nsectors, fua, false, {}};
    }
    static IoRequest
    append(uint64_t zone_slba, IoBuf payload, bool fua = false)
    {
        IoRequest r;
        r.op = IoOp::kAppend;
        r.slba = zone_slba;
        r.nsectors = static_cast<uint32_t>(payload.size() / kSectorSize);
        r.fua = fua;
        r.data = std::move(payload);
        return r;
    }
    static IoRequest
    flush()
    {
        return {IoOp::kFlush, 0, 0, false, false, {}};
    }
    static IoRequest
    zone_reset(uint64_t zone_slba)
    {
        return {IoOp::kZoneReset, zone_slba, 0, false, false, {}};
    }
    static IoRequest
    zone_finish(uint64_t zone_slba)
    {
        return {IoOp::kZoneFinish, zone_slba, 0, false, false, {}};
    }
};

/// Completion record for one IoRequest.
struct IoResult {
    Status status;
    uint64_t lba = 0; ///< for kAppend: the LBA the data landed at
    /// For kRead in data mode: the payload, in a buffer the device
    /// filled for this command (or, above the device, a slice of one).
    IoBuf data;
    Tick submit_tick = 0;
    Tick complete_tick = 0;

    Tick latency() const { return complete_tick - submit_tick; }
};

using IoCallback = std::function<void(IoResult)>;

/// Whether a device stores payload bytes (correctness) or only tracks
/// geometry/timing (performance runs at scale).
enum class DataMode : uint8_t { kNone, kStore };

/// Static device shape.
struct DeviceGeometry {
    uint64_t nsectors = 0; ///< total addressable sectors
    bool zoned = false;
    uint64_t zone_size = 0; ///< LBA span per zone (sectors)
    uint64_t zone_capacity = 0; ///< writable sectors per zone
    uint32_t nzones = 0;
    uint32_t max_open_zones = 14; ///< paper's device limit
    uint32_t max_active_zones = 14;
    uint32_t max_append_sectors = 256; ///< 1 MiB
    uint32_t atomic_write_sectors = 16; ///< 64 KiB device-atomic writes

    uint64_t capacity_bytes() const { return nsectors * kSectorSize; }
};

/// Cumulative device counters (also used to account GC activity).
struct DeviceStats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t appends = 0;
    uint64_t flushes = 0;
    uint64_t zone_resets = 0;
    uint64_t sectors_read = 0;
    uint64_t sectors_written = 0;
    uint64_t gc_page_copies = 0; ///< FTL GC relocations (conventional)
    uint64_t gc_erases = 0;
    uint64_t errors = 0;
    /// Total service-unit busy time (ns of virtual time summed across
    /// the device's parallel units). Utilization over an interval is
    /// rate(busy_ns) / (units * 1e9); a fully saturated 8-unit device
    /// accrues 8 busy seconds per wall second.
    uint64_t busy_ns = 0;

    /// Name/value enumeration — single source of truth for metrics-
    /// registry linkage (obs::link_stats) and rendering.
    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("reads", reads);
        fn("writes", writes);
        fn("appends", appends);
        fn("flushes", flushes);
        fn("zone_resets", zone_resets);
        fn("sectors_read", sectors_read);
        fn("sectors_written", sectors_written);
        fn("gc_page_copies", gc_page_copies);
        fn("gc_erases", gc_erases);
        fn("errors", errors);
        fn("busy_ns", busy_ns);
    }
};

/**
 * Abstract asynchronous device. Implementations: ZnsDevice, ConvDevice.
 */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    virtual const DeviceGeometry &geometry() const = 0;
    virtual const DeviceStats &stats() const = 0;

    /// Whether this device stores payload bytes or runs timing-only.
    virtual DataMode data_mode() const = 0;

    /// Queues a command; `cb` fires on the event loop at completion time.
    virtual void submit(IoRequest req, IoCallback cb) = 0;

    /// Report Zones (admin path, synchronous). Invalid for non-zoned.
    virtual Result<ZoneInfo> zone_info(uint32_t zone_index) const = 0;

    /// True once fail() was called (device no longer serves IO).
    virtual bool failed() const = 0;

    /// Simulates hot-removal: all inflight and future IO errors out.
    virtual void fail() = 0;

    /**
     * Installs the byte-provenance ledger this device reports into, as
     * array-member slot `dev_index`. Devices call
     * ledger->record(dev_index, ...) at exactly the points their
     * DeviceStats counters move. Virtual so wrappers
     * (FaultInjectingDevice) can forward to the wrapped device.
     */
    virtual void
    set_ledger(obs::IoLedger *ledger, uint32_t dev_index)
    {
        ledger_ = ledger;
        ledger_dev_ = dev_index;
    }

  protected:
    obs::IoLedger *ledger_ = nullptr;
    uint32_t ledger_dev_ = 0;
};

/**
 * Runs `req` synchronously by draining the event loop until the
 * completion fires. Test/tool helper; production paths stay async.
 */
IoResult submit_sync(EventLoop &loop, BlockDevice &dev, IoRequest req);

/// Fills `n` sectors with a deterministic pattern derived from `seed`.
std::vector<uint8_t> pattern_data(uint32_t nsectors, uint64_t seed);

} // namespace raizn
