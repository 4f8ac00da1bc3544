/**
 * @file
 * RAIZN array configuration (paper §4, §6: 5 devices, 64 KiB stripe
 * units, 1 parity unit per stripe, >= 3 metadata zones per device,
 * 8 stripe buffers per open zone).
 */
#pragma once

#include <cstdint>

#include "array/md_format.h"
#include "common/units.h"

namespace raizn {

struct RaiznConfig {
    /// Total devices (D data + 1 parity per stripe). Minimum 3.
    uint32_t num_devices = 5;
    /// Stripe unit ("chunk") size in sectors. 16 = 64 KiB.
    uint32_t su_sectors = 16;
    /// Reserved metadata zones per device: one for partial parity logs,
    /// one general metadata zone, and at least one swap zone (§4.3).
    uint32_t md_zones_per_device = kMdZonesPerDevice;
    /// Pre-allocated stripe buffers per open logical zone (§5.1).
    uint32_t stripe_buffers_per_zone = 8;
    /// Remapped stripe units per physical zone before RAIZN rebuilds
    /// that zone at initialization (§5.2).
    uint32_t relocation_threshold = 16;
    /// Generation counters per persisted 4 KiB metadata block (§4.3).
    static constexpr uint32_t kGenCountersPerBlock = 508;

    uint32_t data_units() const { return num_devices - 1; }

    bool
    valid() const
    {
        // At most 64 members: ZonedArray keeps one bit per member.
        return num_devices >= 3 && num_devices <= 64 && su_sectors >= 1 &&
            md_zones_per_device >= kMdZonesPerDevice && stripe_buffers_per_zone >= 1;
    }
};

} // namespace raizn
