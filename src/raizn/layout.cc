#include "raizn/layout.h"

#include <cassert>

#include "common/logging.h"

namespace raizn {

Layout::Layout(const RaiznConfig &cfg, const DeviceGeometry &phys)
    : cfg_(cfg), phys_(phys)
{
    assert(cfg_.valid());
    assert(phys_.zoned);
    // Stripe units must tile physical zones exactly.
    assert(phys_.zone_capacity % cfg_.su_sectors == 0);
    assert(phys_.nzones > cfg_.md_zones_per_device);

    stripe_sectors_ =
        static_cast<uint64_t>(cfg_.data_units()) * cfg_.su_sectors;
    logical_zone_cap_ = cfg_.data_units() * phys_.zone_capacity;
    num_logical_zones_ = phys_.nzones - cfg_.md_zones_per_device;
}

uint32_t
Layout::parity_dev(uint32_t zone, uint64_t stripe) const
{
    // Rotate parity every stripe; offset by zone so that the device
    // holding stripe 0's parity (and the reset log) differs between
    // successive zones (§5.2).
    return static_cast<uint32_t>((zone + stripe) % cfg_.num_devices);
}

uint32_t
Layout::data_dev(uint32_t zone, uint64_t stripe, uint32_t k) const
{
    assert(k < cfg_.data_units());
    // Left-symmetric: data positions follow the parity device.
    return (parity_dev(zone, stripe) + 1 + k) % cfg_.num_devices;
}

int
Layout::data_pos_of_dev(uint32_t zone, uint64_t stripe,
                        uint32_t dev) const
{
    uint32_t p = parity_dev(zone, stripe);
    if (dev == p)
        return -1;
    return static_cast<int>(
        (dev + cfg_.num_devices - p - 1) % cfg_.num_devices);
}

void
Layout::map_sector(uint64_t lba, uint32_t *dev, uint64_t *pba) const
{
    uint32_t zone = zone_of(lba);
    uint64_t off = lba - zone_start_lba(zone);
    uint64_t stripe = off / stripe_sectors_;
    uint64_t in_stripe = off % stripe_sectors_;
    uint32_t k = static_cast<uint32_t>(in_stripe / cfg_.su_sectors);
    uint64_t in_su = in_stripe % cfg_.su_sectors;
    *dev = data_dev(zone, stripe, k);
    *pba = slot_pba(zone, stripe) + in_su;
}

void
Layout::map_range(uint64_t lba, uint64_t n, ExtentList *out) const
{
    uint64_t cur = lba;
    uint64_t end = lba + n;
    while (cur < end) {
        uint32_t dev;
        uint64_t pba;
        map_sector(cur, &dev, &pba);
        // Extend to the end of this stripe unit (or the request).
        uint64_t in_su = pba % cfg_.su_sectors;
        uint64_t chunk = std::min<uint64_t>(end - cur,
                                            cfg_.su_sectors - in_su);
        // Never cross a logical zone boundary within one extent.
        uint64_t zone_end =
            zone_start_lba(zone_of(cur)) + logical_zone_cap_;
        chunk = std::min(chunk, zone_end - cur);
        out->push_back(PhysExtent{dev, pba, static_cast<uint32_t>(chunk),
                                  cur, false});
        cur += chunk;
    }
}

uint64_t
Layout::progress_from_device(uint32_t zone, uint32_t dev,
                             uint64_t written) const
{
    if (written == 0)
        return 0;
    // Last stripe this device has any sectors for.
    uint64_t stripe = (written - 1) / cfg_.su_sectors;
    uint64_t in_slot = written - stripe * cfg_.su_sectors;
    uint64_t base = stripe * stripe_sectors_;
    int pos = data_pos_of_dev(zone, stripe, dev);
    if (pos < 0) {
        // Parity present implies the whole stripe was written.
        return base + stripe_sectors_;
    }
    return base + static_cast<uint64_t>(pos) * cfg_.su_sectors + in_slot;
}

} // namespace raizn
