/**
 * @file
 * Private definitions shared by volume.cc, recovery.cc, and rebuild.cc.
 * Not part of the public API.
 */
#pragma once

#include <deque>

#include "array/crc_catalog.h"
#include "obs/prof/prof.h"
#include "raizn/volume.h"

namespace raizn {

/// Key for per-(zone, stripe) maps (parity relocations, the pp index).
inline uint64_t
zs_key(uint32_t zone, uint64_t stripe)
{
    return (static_cast<uint64_t>(zone) << 32) | stripe;
}

/// Copies `bytes` into a fresh buffer on the host profiler's alloc and
/// copy meters (an empty, length-only payload costs nothing).
inline std::vector<uint8_t>
metered_copy(const std::vector<uint8_t> &bytes)
{
    if (!bytes.empty()) {
        prof::count_alloc(bytes.size());
        prof::count_copy(bytes.size());
    }
    return bytes;
}

/// Logical zone descriptor (Table 1: 64 bytes per logical zone plus
/// stripe buffers and persistence bitmap while the zone is open).
struct RaiznVolume::LZone {
    raizn::ZoneState cond = raizn::ZoneState::kEmpty;
    uint64_t wp = 0; ///< absolute logical LBA of the next write
    uint64_t start = 0;
    uint64_t cap_end = 0;
    bool blocked = false; ///< zone reset in flight: IO queued (§5.2)
    std::vector<std::unique_ptr<StripeBuffer>> buffers;
    PersistBitmap pbm;
    std::deque<std::function<void()>> waiters;
    /// Per-sector CRC32C catalog of the logical payload (data mode
    /// only; empty after a remount until the scrubber repopulates it).
    CrcCatalog crc;

    uint64_t written() const { return wp - start; }
};

/// Tracks one logical write until every sub-IO (data, parity, partial
/// parity log, dependency flushes) has completed.
struct RaiznVolume::WriteCtx {
    uint32_t pending = 0;
    bool issued_all = false;
    Status status;
    WriteFlags flags;
    uint32_t zone = 0;
    uint64_t end_lba = 0; ///< logical end of the write
    uint32_t nsectors = 0; ///< logical length (acked-user-byte ledger)
    IoCallback cb;
    bool in_flush_phase = false;
    // Trace context (zero when tracing is detached).
    uint64_t req_id = 0;      ///< correlation id for all sub-IO spans
    uint64_t total_token = 0; ///< open "raizn.write" span
    Tick start_tick = 0;      ///< process_write entry (total latency)
};

} // namespace raizn
