/**
 * @file
 * RAIZN's inline metadata record layouts: the zone reset log, the
 * physical-zone rebuild WAL and the whole-device rebuild checkpoint.
 * The entry framing they travel in, and the zone-role record of the
 * metadata log itself, live in array/md_format.h.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "array/md_format.h"

namespace raizn {

/// kZoneResetLog inline record: intent to reset `logical_zone` whose
/// pre-reset generation was `header.generation`.
struct ZoneResetRecord {
    uint32_t logical_zone;
};

std::vector<uint8_t> encode_zone_reset(const ZoneResetRecord &rec);
Result<ZoneResetRecord> decode_zone_reset(const MdEntry &entry);

/// kZoneRebuildLog inline record (physical zone rebuild WAL, §5.2).
struct ZoneRebuildRecord {
    uint32_t logical_zone;
    uint32_t dev;
    uint32_t phase; ///< 0 = started, 1 = copied-to-swap, 2 = done
    uint32_t swap_idx; ///< metadata swap zone holding the image
    uint64_t image_sectors; ///< valid sectors copied
};

std::vector<uint8_t> encode_zone_rebuild(const ZoneRebuildRecord &rec);
Result<ZoneRebuildRecord> decode_zone_rebuild(const MdEntry &entry);

/// kRebuildCheckpoint inline record. Appended durably to every
/// surviving device at rebuild start and after each completed zone;
/// `header.generation` carries the volume update sequence so the
/// newest record wins at replay. `state` == kDone supersedes any
/// in-progress record for the same device.
struct RebuildCheckpointRecord {
    enum State : uint32_t { kInProgress = 1, kDone = 2 };

    uint32_t dev = 0; ///< device slot being rebuilt
    uint32_t state = kInProgress;
    uint32_t zones_done = 0; ///< zone-order cursor (completed count)
    uint32_t cur_zone = ~0u; ///< logical zone in flight (~0u = none)
    /// One bit per logical zone: set when the zone's reconstructed
    /// content is fully durable on the replacement device.
    std::vector<bool> rebuilt;
};

std::vector<uint8_t>
encode_rebuild_checkpoint(const RebuildCheckpointRecord &rec);
Result<RebuildCheckpointRecord>
decode_rebuild_checkpoint(const MdEntry &entry);

} // namespace raizn
