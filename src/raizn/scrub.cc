/**
 * @file
 * RAIZN's scrub policy; the walker and the verdict live in ZonedArray
 * (array/scrub.cc). RAIZN verifies every stripe stored at its home
 * placement and repairs what the verdict localises as a relocated
 * stripe unit — the mechanism the write path uses for burned slots, so
 * reads and recovery pick repairs up with no extra machinery. Parity
 * is relocated too: its physical slot cannot be overwritten on ZNS.
 */
#include "raizn/volume_impl.h"

#include <algorithm>

#include "array/stripe_gather.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

bool
RaiznVolume::scrub_candidates(std::vector<ScrubStripe> *out) const
{
    if (read_only())
        return true;
    const uint64_t ss = layout_->stripe_sectors();
    const uint32_t su = cfg_.su_sectors;
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        const LZone &lz = zones_[z];
        if (lz.blocked || lz.written() == 0)
            continue;
        // Scrub only verifies healthy stripes: with a device down the
        // parity equation cannot be checked, let alone repaired.
        uint64_t min_wp = UINT64_MAX;
        for (uint32_t d = 0; d < devs_.size() && min_wp > 0; ++d) {
            auto zi = devs_[d]->zone_info(z);
            min_wp = dev_unavailable(d, z) || !zi.is_ok()
                ? 0
                : std::min(min_wp, zi.value().wp);
        }
        // Every unit of the stripe (data and parity) must be physically
        // written at its home slot on every device — relocated or
        // partially-written stripes are served from the metadata zones
        // and are not scrub's to verify.
        const uint64_t nstripes = (lz.written() + ss - 1) / ss;
        for (uint64_t s = 0;
             s < nstripes && layout_->slot_pba(z, s) + su <= min_wp; ++s) {
            if (!stripe_displaced(z, s))
                out->push_back({z, s, gen_.get(z)});
        }
    }
    return true;
}

bool
RaiznVolume::scrub_plan(const ScrubStripe &s, ScrubPlan *plan)
{
    // A reset, or a relocation into the metadata zones, leaves nothing
    // of the stripe at home to verify.
    if (gen_.get(s.zone) != s.gen || zones_[s.zone].blocked ||
        stripe_displaced(s.zone, s.stripe))
        return false;
    if (plan == nullptr)
        return true;
    const uint32_t su = cfg_.su_sectors;
    const uint64_t slot = layout_->slot_pba(s.zone, s.stripe);
    const uint64_t stripe_off = s.stripe * layout_->stripe_sectors();
    plan->crc = &zones_[s.zone].crc;
    for (uint32_t k = 0; k < cfg_.data_units(); ++k) {
        plan->units.push_back({layout_->data_dev(s.zone, s.stripe, k), slot,
                               su, static_cast<int>(k),
                               stripe_off + static_cast<uint64_t>(k) * su});
    }
    plan->units.push_back({layout_->parity_dev(s.zone, s.stripe), slot, su,
                           StripeGather::kP, 0});
    return true;
}

bool
RaiznVolume::scrub_repair(const ScrubStripe &s, int role, IoBuf bytes)
{
    // Persist the repair durably, exactly like a relocated stripe unit:
    // the relocation shadows the corrupt physical slot for every later
    // read, and recovery replays its record.
    const bool parity = role < 0;
    stats_.read_repairs++;
    stats_.relocated_writes++;
    if (trace_ != nullptr) {
        trace_->instant(parity ? "scrub.repair_parity" : "scrub.repair_unit",
                        0, obs::kTrackMetadata, loop_->now());
    }
    auto logged = [](Status st) {
        if (!st.is_ok())
            LOG_WARN("scrub repair persist failed: %s",
                     st.to_string().c_str());
    };
    const uint32_t su = cfg_.su_sectors;
    if (parity) {
        relocate_unit(layout_->parity_dev(s.zone, s.stripe), s.zone,
                      zs_key(s.zone, s.stripe), su, /*parity=*/true,
                      std::move(bytes), /*durable=*/true, logged);
        return true;
    }
    const auto k = static_cast<uint32_t>(role);
    const uint64_t off =
        s.stripe * layout_->stripe_sectors() + static_cast<uint64_t>(k) * su;
    // Refresh the catalog for the repaired range.
    zones_[s.zone].crc.record(off, bytes.data(), su);
    relocate_unit(layout_->data_dev(s.zone, s.stripe, k), s.zone,
                  zones_[s.zone].start + off, su, /*parity=*/false,
                  std::move(bytes), /*durable=*/true, logged);
    return true;
}

} // namespace raizn
