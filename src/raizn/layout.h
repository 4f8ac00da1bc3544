/**
 * @file
 * Arithmetic address translation between the RAIZN logical address
 * space and per-device physical addresses (paper §4.1).
 *
 * Data zones on each device are grouped into logical zones (logical
 * zone N = physical zone N on every device). Within a logical zone,
 * data is striped in stripe-unit granularity across the D data
 * positions of each stripe; the parity position rotates every stripe
 * (and is offset per zone so parity and reset-log load spread evenly).
 * The last `md_zones_per_device` physical zones of each device are
 * reserved for metadata.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "raizn/config.h"
#include "zns/block_device.h"

namespace raizn {

/// One physical extent of a logical range (read/write sub-IO target).
struct PhysExtent {
    uint32_t dev; ///< device index
    uint64_t pba; ///< physical start LBA on that device
    uint32_t nsectors;
    uint64_t lba; ///< logical start LBA this extent maps
    bool parity = false; ///< true for parity sub-IOs (write path only)
};

/// The extents of one logical range: the first kInline in place (a
/// read rarely spans more stripe units), the whole list on the heap
/// beyond that.
class ExtentList
{
  public:
    static constexpr size_t kInline = 8;

    void
    push_back(const PhysExtent &e)
    {
        if (n_ < kInline && spill_.empty()) {
            inline_[n_++] = e;
            return;
        }
        if (spill_.empty())
            spill_.assign(inline_, inline_ + n_);
        spill_.push_back(e);
        n_++;
    }
    size_t size() const { return n_; }
    const PhysExtent *begin() const
    {
        return spill_.empty() ? inline_ : spill_.data();
    }
    const PhysExtent *end() const { return begin() + n_; }
    const PhysExtent &operator[](size_t i) const { return begin()[i]; }

  private:
    PhysExtent inline_[kInline];
    std::vector<PhysExtent> spill_;
    size_t n_ = 0;
};

class Layout
{
  public:
    Layout(const RaiznConfig &cfg, const DeviceGeometry &phys);

    uint32_t num_devices() const { return cfg_.num_devices; }
    /// D: data stripe units per stripe.
    uint32_t data_units() const { return cfg_.data_units(); }
    uint32_t su() const { return cfg_.su_sectors; }
    /// Data sectors per stripe (D * su).
    uint64_t stripe_sectors() const { return stripe_sectors_; }

    uint32_t num_logical_zones() const { return num_logical_zones_; }
    /// Sectors per logical zone (D * physical zone capacity).
    uint64_t logical_zone_cap() const { return logical_zone_cap_; }
    /// Total logical capacity in sectors.
    uint64_t logical_capacity() const
    {
        return logical_zone_cap_ * num_logical_zones_;
    }
    uint64_t phys_zone_size() const { return phys_.zone_size; }
    uint64_t phys_zone_cap() const { return phys_.zone_capacity; }
    /// Stripes per logical zone.
    uint64_t stripes_per_zone() const
    {
        return phys_.zone_capacity / cfg_.su_sectors;
    }

    uint32_t zone_of(uint64_t lba) const
    {
        return static_cast<uint32_t>(lba / logical_zone_cap_);
    }
    uint64_t zone_start_lba(uint32_t zone) const
    {
        return static_cast<uint64_t>(zone) * logical_zone_cap_;
    }
    /// Stripe index within the zone for a logical zone offset.
    uint64_t stripe_of_offset(uint64_t zone_off) const
    {
        return zone_off / stripe_sectors_;
    }

    /// Device holding the parity stripe unit of (zone, stripe).
    uint32_t parity_dev(uint32_t zone, uint64_t stripe) const;
    /// Device holding data stripe-unit position k of (zone, stripe).
    uint32_t data_dev(uint32_t zone, uint64_t stripe, uint32_t k) const;
    /// Data stripe-unit position occupied by `dev`, or -1 if parity.
    int data_pos_of_dev(uint32_t zone, uint64_t stripe,
                        uint32_t dev) const;

    /// Physical start LBA of stripe `stripe`'s per-device slot in zone.
    uint64_t
    slot_pba(uint32_t zone, uint64_t stripe) const
    {
        return static_cast<uint64_t>(zone) * phys_.zone_size +
            stripe * cfg_.su_sectors;
    }

    /// Maps logical [lba, lba+n) to data-device physical extents,
    /// appended to `out`.
    void map_range(uint64_t lba, uint64_t n, ExtentList *out) const;

    /// Physical LBA on the data device for a single logical sector.
    void map_sector(uint64_t lba, uint32_t *dev, uint64_t *pba) const;

    /**
     * Logical zone offset implied by a device having `written` sectors
     * in its physical zone for this logical zone, assuming no holes:
     * used as the per-device progress estimate during recovery.
     */
    uint64_t progress_from_device(uint32_t zone, uint32_t dev,
                                  uint64_t written) const;

    /// First physical zone index reserved for metadata.
    uint32_t first_md_zone() const { return num_logical_zones_; }
    uint32_t md_zones() const { return cfg_.md_zones_per_device; }
    /// Physical start LBA of metadata zone `i` (0-based).
    uint64_t
    md_zone_start(uint32_t i) const
    {
        return static_cast<uint64_t>(num_logical_zones_ + i) *
            phys_.zone_size;
    }

    const RaiznConfig &config() const { return cfg_; }
    const DeviceGeometry &phys_geometry() const { return phys_; }

  private:
    RaiznConfig cfg_;
    DeviceGeometry phys_;
    uint64_t stripe_sectors_;
    uint64_t logical_zone_cap_;
    uint32_t num_logical_zones_;
};

} // namespace raizn
