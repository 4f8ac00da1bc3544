/**
 * @file
 * Stripe cache for the mdraid-like RAID-5 baseline. Caches stripe
 * contents so partial-stripe writes can recompute parity without
 * read-modify-write disk reads, mirroring md's stripe cache (the paper
 * configures it at its 128 MiB maximum).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace raizn {

class StripeCache
{
  public:
    /**
     * @param stripe_bytes data bytes cached per stripe (D chunks)
     * @param capacity_bytes total cache budget
     * @param store whether payload bytes are kept (timing-only mode
     *        tracks presence without storing)
     */
    StripeCache(uint64_t stripe_bytes, uint64_t capacity_bytes,
                bool store);

    struct Entry {
        uint64_t stripe;
        /// Data bytes (D chunks); empty in timing-only mode.
        std::vector<uint8_t> data;
        /// Per-sector validity of the cached data.
        std::vector<bool> valid;
        bool all_valid() const;
    };

    /// Returns (creating if needed) the entry for `stripe`, evicting
    /// the least recently used stripe when over budget.
    Entry *get_or_create(uint64_t stripe, uint64_t stripe_sectors);

    size_t size() const { return map_.size(); }
    uint64_t capacity_stripes() const { return capacity_stripes_; }

  private:
    void touch(uint64_t stripe);

    uint64_t stripe_bytes_;
    uint64_t capacity_stripes_;
    bool store_;
    std::list<uint64_t> lru_; ///< front = most recent
    std::unordered_map<uint64_t,
                       std::pair<Entry, std::list<uint64_t>::iterator>>
        map_;
};

} // namespace raizn
