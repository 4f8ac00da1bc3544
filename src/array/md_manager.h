/**
 * @file
 * Metadata zone manager (paper §4.3), the one metadata log of every
 * engine that keeps one (RAIZN and ZonedEngine). Each device reserves
 * >= 3 physical zones at its end for metadata: one bound to the
 * general log role (RAIZN: superblock, generation counters, reset
 * logs, relocated stripe units; ZonedEngine: per-zone state records),
 * one to the partial-parity log role (isolated because parity logs are
 * written on every non-stripe-aligned write), and the rest as swap
 * zones for metadata garbage collection.
 *
 * All metadata is written with zone appends. When an active log zone
 * fills, the manager designates a swap zone as the new log target,
 * writes a role record with a higher epoch, checkpoints the currently
 * valid in-memory metadata (entries flagged as checkpointed), and
 * resets the old zone back into the swap pool (Fig. 4).
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "array/md_format.h"
#include "common/slab.h"
#include "fault/retry.h"
#include "zns/block_device.h"

namespace raizn {

class EventLoop;

/// The physical zones a manager logs into, the same on every device.
struct MdZoneRange {
    uint32_t first = 0; ///< physical zone index of metadata zone 0
    uint32_t count = 0; ///< metadata zones (>= 3)
    uint64_t zone_size = 0; ///< sectors between zone starts
    uint64_t zone_cap = 0; ///< writable sectors per zone

    /// The last `count` zones of a device with geometry `g`.
    static MdZoneRange
    trailing(const DeviceGeometry &g, uint32_t count)
    {
        return {g.nzones - count, count, g.zone_size, g.zone_capacity};
    }
};

/**
 * One metadata entry ready to append. The payload's length travels in
 * `payload_sectors`; its bytes are optional. An entry without bytes
 * is length-only: a timing-only member takes just the sector count,
 * and a member that stores bytes gets the payload zero-filled.
 */
struct MdAppend {
    MdHeader header;
    std::vector<uint8_t> inline_data;
    std::vector<uint8_t> payload; ///< empty or payload_sectors sectors
    uint32_t payload_sectors = 0;

    /// Sets a payload of `nsectors` sectors; `bytes` may be empty.
    void
    set_payload(uint64_t nsectors, std::vector<uint8_t> bytes = {})
    {
        assert(bytes.empty() || bytes.size() == nsectors * kSectorSize);
        payload_sectors = static_cast<uint32_t>(nsectors);
        payload = std::move(bytes);
    }
    /// Header sector plus payload.
    uint64_t sectors() const { return 1 + uint64_t{payload_sectors}; }
};

using StatusCb = std::function<void(Status)>;

class MdManager
{
  public:
    /// Returns the checkpoint image of all currently valid in-memory
    /// metadata for (dev, role); invoked during metadata GC.
    using SnapshotProvider =
        std::function<std::vector<MdAppend>(uint32_t dev, MdZoneRole role)>;

    MdManager(EventLoop *loop, MdZoneRange zones,
              std::vector<BlockDevice *> devs);

    void set_snapshot_provider(SnapshotProvider provider)
    {
        snapshot_ = std::move(provider);
    }

    /// Routes metadata appends through the volume's retry layer so
    /// transient device errors are absorbed like any other sub-IO.
    /// Pass nullptr to submit directly. Non-owning; the caller keeps
    /// the retrier alive for the manager's lifetime.
    void set_retrier(IoRetrier *retrier) { retrier_ = retrier; }

    /// mkfs path: resets all metadata zones and binds initial roles.
    Status format();

    /// Spare promotion: swaps the device pointer for slot `dev` (the
    /// manager keeps its own device table). The caller formats the
    /// replacement's metadata zones separately via format_device().
    void replace_device(uint32_t dev, BlockDevice *replacement)
    {
        devs_[dev] = replacement;
    }

    /// Re-initializes one (replaced) device's metadata zones.
    Status format_device(uint32_t dev);

    /**
     * Appends one metadata entry to the `role` log of device `dev`.
     * `durable` forces FUA so the entry survives power loss at
     * completion (zone reset logs, rebuild WAL). Triggers metadata GC
     * transparently when the active zone is out of space.
     */
    void append(uint32_t dev, MdZoneRole role, MdAppend entry,
                bool durable, StatusCb cb);

    /// Per-device replay log recovered by scan().
    struct DeviceLog {
        bool alive = false;
        /// Entries in replay order (older role epoch first, then append
        /// order). Role records are filtered out.
        std::vector<MdEntry> entries;
    };

    /**
     * Mount path: reads every metadata zone on every live device,
     * restores role bindings and append positions, and returns the
     * replayable entries per device.
     */
    Result<std::vector<DeviceLog>> scan();

    /// Device LBA the next append to (dev, role) will land at
    /// (metadata-zone relative position is wp tracking only).
    uint64_t active_zone_wp(uint32_t dev, MdZoneRole role) const;

    /**
     * Lends an empty swap metadata zone (its index) to the caller for
     * a physical-zone rebuild; return it with return_swap once reset.
     */
    Result<uint32_t> borrow_swap(uint32_t dev);
    void return_swap(uint32_t dev, uint32_t idx);

    uint64_t gc_runs() const { return gc_runs_; }

    /**
     * Byte-provenance of one metadata append, from its log role and
     * entry type: partial parity → pp_log, relocated stripe units →
     * relocation, rebuild WAL/checkpoints → rebuild, everything else
     * (superblock, generation counters, reset WAL, role records) →
     * wal_md. Central so every append site agrees on the taxonomy.
     */
    static obs::Cause cause_of(MdZoneRole role, MdType type);
    /// Sectors of metadata appended since construction (per device).
    uint64_t md_sectors_written(uint32_t dev) const
    {
        return dev_state_[dev].sectors_written;
    }

  private:
    static constexpr uint32_t kNumRoles = 2; // general, parity log

    struct DevState {
        /// md-zone index (0-based) bound to each role; -1 = unbound.
        int role_zone[kNumRoles] = {-1, -1};
        uint64_t next_epoch = 1;
        std::vector<uint64_t> wp; ///< tracked sectors used per md zone
        std::vector<uint32_t> swap; ///< free md-zone indices
        uint64_t sectors_written = 0;
        /// Zones a GC switch retired that are not back in `swap` yet
        /// (checkpoint or reset still in flight).
        uint32_t recycling = 0;
        /// Appends waiting for one of those zones (no swap zone was
        /// free when they needed a switch), in arrival order.
        std::vector<std::function<void()>> parked;
    };

    uint64_t md_zone_cap() const { return zones_.zone_cap; }
    uint64_t md_zone_pba(uint32_t idx) const
    {
        return (uint64_t{zones_.first} + idx) * zones_.zone_size;
    }

    /// Appends `sectors` sectors to md zone `zone_idx`; `bytes` is the
    /// encoded entry, or empty for a timing-only member.
    void do_append(uint32_t dev, uint32_t zone_idx, uint64_t sectors,
                   std::vector<uint8_t> bytes, bool durable,
                   obs::Cause cause, StatusCb cb);
    /// Switches (dev, role) to a fresh swap zone and checkpoints.
    void gc_switch(uint32_t dev, MdZoneRole role, StatusCb done);
    /// Re-runs the appends parked on `dev`, in order.
    void resume_parked(uint32_t dev);
    /// On-disk image of `entry` for device `dev`: encoded (a missing
    /// payload zero-filled) when the member stores bytes, else empty.
    std::vector<uint8_t> encode_for(uint32_t dev,
                                    const MdAppend &entry) const;

    /// Submits via the retrier when one is attached.
    void md_submit(uint32_t dev, IoRequest req, IoCallback cb);

    EventLoop *loop_;
    MdZoneRange zones_;
    std::vector<BlockDevice *> devs_;
    std::vector<DevState> dev_state_;
    SnapshotProvider snapshot_;
    IoRetrier *retrier_ = nullptr;
    /// Callbacks of appends in flight; the device completion captures
    /// only (this, slot), which fits std::function's inline buffer.
    Slab<StatusCb> append_cbs_;
    uint64_t gc_runs_ = 0;
};

} // namespace raizn
