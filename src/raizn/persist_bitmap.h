/**
 * @file
 * Per-logical-zone persistence bitmap (paper §5.3, Fig. 6): one bit per
 * stripe unit, tracking which stripe units are known durable on their
 * device. FUA/preflushed writes complete only after every preceding
 * LBA in the zone is durable; the bitmap identifies which devices still
 * hold non-persisted stripe units and must be flushed.
 */
#pragma once

#include <cstdint>

#include "common/bitmap.h"

namespace raizn {

class PersistBitmap
{
  public:
    PersistBitmap() = default;
    PersistBitmap(uint64_t stripe_units_per_zone, uint32_t su_sectors)
        : su_sectors_(su_sectors), bits_(stripe_units_per_zone)
    {
    }

    void
    reset(uint64_t stripe_units_per_zone, uint32_t su_sectors)
    {
        su_sectors_ = su_sectors;
        bits_.resize(stripe_units_per_zone);
        prefix_ = 0;
    }

    /// Clears all persistence state (zone reset).
    void
    clear()
    {
        bits_.clear_all();
        prefix_ = 0;
    }

    /**
     * Marks everything up to zone offset `upto_sectors` durable. Only
     * fully covered stripe units are marked: a unit bit means "this
     * unit's device holds no volatile data for it", which stops being
     * true for a partially persisted unit the moment the zone is
     * extended into its remainder — marking it would let a later FUA
     * dependency flush (§5.3) skip a device still caching the tail.
     */
    void
    mark_persisted_upto(uint64_t upto_sectors)
    {
        uint64_t units = upto_sectors / su_sectors_;
        units = std::min<uint64_t>(units, bits_.size());
        // Every unit below the prefix is already set.
        if (units <= prefix_)
            return;
        bits_.set_range(prefix_, units);
        advance_prefix();
    }

    /// Marks stripe-unit index `unit` durable.
    void
    mark_unit(uint64_t unit)
    {
        bits_.set(unit);
        advance_prefix();
    }

    bool
    unit_persisted(uint64_t unit) const
    {
        return bits_.test(unit);
    }

    /// All stripe units below `unit_count` durable?
    bool
    prefix_persisted(uint64_t unit_count) const
    {
        return persisted_prefix_units() >= unit_count;
    }

    /// Longest durable prefix, in stripe units.
    uint64_t persisted_prefix_units() const { return prefix_; }

    /// In-memory footprint (Table 1: 1 bit per stripe unit).
    size_t memory_bytes() const { return (bits_.size() + 7) / 8; }

  private:
    void
    advance_prefix()
    {
        prefix_ = bits_.find_first_clear(prefix_);
    }

    uint32_t su_sectors_ = 1;
    Bitmap bits_;
    uint64_t prefix_ = 0;
};

} // namespace raizn
