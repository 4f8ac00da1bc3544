/**
 * @file
 * Metadata log framing (paper §4.3, Fig. 3), shared by every engine
 * that keeps a metadata log through MdManager. Every persisted entry
 * starts with a 4 KiB header sector:
 *
 *   bytes 0-3   magic ("RZNM")
 *   bytes 4-7   metadata type (checkpoint flag in the top bit)
 *   bytes 8-15  start LBA
 *   bytes 16-23 end LBA
 *   bytes 24-31 generation counter of the containing logical zone
 *   bytes 32-.. inline metadata (up to 4064 bytes)
 *
 * Entries whose payload exceeds the inline area (partial parity,
 * relocated stripe units) append payload sectors after the header; for
 * those types the first 4 inline bytes hold the payload sector count.
 * The inline record layouts of each type belong to the engine that
 * writes it (raizn/metadata.h for RAIZN, array/engine.cc for
 * ZonedEngine); only the zone-role record is defined here.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace raizn {

inline constexpr uint32_t kMdMagic = 0x4d4e5a52; // "RZNM" little-endian
/// Flag OR'd into the type by the metadata garbage collector to mark
/// checkpointed (vs freshly logged) entries (§4.3, Fig. 4).
inline constexpr uint32_t kMdCheckpointFlag = 0x8000'0000u;
/// Inline payload capacity of a header sector.
inline constexpr uint32_t kMdInlineBytes = kSectorSize - 32;
/// Metadata zones every engine reserves at the end of each member by
/// default: the general log, the partial-parity log and one swap zone.
inline constexpr uint32_t kMdZonesPerDevice = 3;

enum class MdType : uint32_t {
    kSuperblock = 1,
    kGenCounters = 2,
    kZoneResetLog = 3,
    kPartialParity = 4,
    kRelocatedSu = 5,
    /// First entry of an activated metadata zone: binds the physical
    /// zone to a log role with an epoch for crash disambiguation.
    kZoneRole = 6,
    /// Write-ahead record for physical-zone rebuild (relocation GC).
    kZoneRebuildLog = 7,
    /// Progress checkpoint for a whole-device rebuild: which logical
    /// zones of the replacement device hold durable reconstructed data,
    /// so a crash mid-rebuild resumes instead of restarting.
    kRebuildCheckpoint = 8,
    /// ZonedEngine per-zone state: a reset intent or completion, an
    /// auto-mode kind decision, a rebuild re-join, or the zone's GC
    /// snapshot (generation, participants and kind).
    kEngineZone = 9,
};

constexpr bool
md_type_has_payload(MdType t)
{
    return t == MdType::kPartialParity || t == MdType::kRelocatedSu;
}

/// Roles a reserved metadata physical zone can hold (§4.3).
enum class MdZoneRole : uint32_t {
    kGeneral = 0, ///< everything but partial parity
    kParityLog = 1, ///< partial parity only (isolated: updated often)
    kSwap = 2, ///< empty spare used by metadata GC
};

/// Decoded metadata header (fixed 32-byte prefix of the header sector).
struct MdHeader {
    MdType type = MdType::kSuperblock;
    bool checkpoint = false;
    uint64_t start_lba = 0;
    uint64_t end_lba = 0;
    uint64_t generation = 0;
};

/// One decoded log entry.
struct MdEntry {
    MdHeader header;
    std::vector<uint8_t> inline_data; ///< kMdInlineBytes bytes
    std::vector<uint8_t> payload; ///< trailing sectors, may be empty
    uint64_t pba = 0; ///< device LBA the entry starts at
    uint32_t total_sectors = 1; ///< header + payload sectors
};

/**
 * Serializes header + inline data (padded to the inline area) into one
 * 4 KiB header sector followed by `payload` rounded up to sectors.
 * For payload-bearing types the payload sector count is stamped into
 * the first 4 inline bytes automatically.
 */
std::vector<uint8_t> encode_md_entry(const MdHeader &header,
                                     const std::vector<uint8_t> &inl,
                                     const std::vector<uint8_t> &payload);

/**
 * Decodes the entry starting at byte offset `off` of `zone_bytes`
 * (the raw contents of a metadata zone read up to its write pointer).
 * Returns kNotFound when `off` does not hold a valid header (end of
 * log), kCorruption on a malformed entry.
 */
Result<MdEntry> decode_md_entry(std::span<const uint8_t> zone_bytes,
                                uint64_t off);

/**
 * Parses a whole metadata zone image into entries, stopping at the
 * first sector that is not a valid header. `base_pba` is the device
 * LBA of byte 0, recorded into each entry.
 */
std::vector<MdEntry> scan_md_zone(std::span<const uint8_t> zone_bytes,
                                  uint64_t base_pba);

// ---- Inline record layouts ------------------------------------------

/// kZoneRole inline record.
struct ZoneRoleRecord {
    MdZoneRole role;
    uint64_t epoch; ///< monotonically increasing per device
};

std::vector<uint8_t> encode_zone_role(const ZoneRoleRecord &rec);
Result<ZoneRoleRecord> decode_zone_role(const MdEntry &entry);

} // namespace raizn
