/**
 * @file
 * Per-logical-zone 64-bit generation counters (paper §4.3). A zone's
 * counter increments on every zone reset, and on every mount for empty
 * zones; metadata log entries carrying a stale generation are invalid.
 *
 * Counters persist in blocks of 508 per 4 KiB metadata entry, exactly
 * the in-memory layout; an update persists the whole 4 KiB block.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "raizn/metadata.h"

namespace raizn {

class GenCounterTable
{
  public:
    static constexpr uint32_t kPerBlock = 508;

    explicit GenCounterTable(uint32_t num_zones = 0);

    void reset(uint32_t num_zones);

    uint32_t num_zones() const { return num_zones_; }

    uint64_t get(uint32_t zone) const { return counters_[zone]; }
    void increment(uint32_t zone) { counters_[zone]++; }

    uint32_t block_of(uint32_t zone) const { return zone / kPerBlock; }
    uint32_t num_blocks() const
    {
        return (num_zones_ + kPerBlock - 1) / kPerBlock;
    }

    /**
     * Encodes persisted block `block` as metadata inline bytes.
     * `update_seq` orders competing persisted copies at replay and is
     * stored in the header's generation field.
     */
    std::vector<uint8_t> encode_block(uint32_t block) const;
    MdHeader block_header(uint32_t block, uint64_t update_seq) const;

    /**
     * Applies a persisted gen-counter entry if its update sequence is
     * newer than what has been applied for that block.
     */
    void apply_entry(const MdEntry &entry);

    /// Memory footprint in bytes (Table 1: 8.05 B per logical zone).
    size_t memory_bytes() const;

  private:
    uint32_t num_zones_ = 0;
    std::vector<uint64_t> counters_;
    std::vector<uint64_t> applied_seq_; ///< per block, replay ordering
};

} // namespace raizn
