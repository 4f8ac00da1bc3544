/**
 * @file
 * RAIZN's rebuild policy (paper §4.2, Fig. 12) over the shared rebuild
 * walk in array/rebuild.cc. When a failed device is replaced, RAIZN
 * rebuilds it zone by zone — active (open/closed) zones first, then
 * full zones — reconstructing only LBA ranges that contain user data
 * (everything between each zone's start and its write pointer), one
 * stripe unit per stripe. Empty zones are skipped entirely, which is
 * why RAIZN's time-to-repair scales with the amount of valid data while
 * mdraid's resync is constant.
 *
 * The rebuild is crash-resumable: a checkpoint record (which logical
 * zones of the target hold durable reconstructed data) is appended to
 * every surviving device's general metadata log — once before the
 * first write touches the target, after every completed zone, and,
 * once the rebuild succeeded, as a terminal "done" record. Mount-time
 * recovery finds the newest record and, for an in-progress one,
 * re-marks the target as the array's absent device so its next rebuild
 * verifies and skips the checkpointed zones instead of restarting. The
 * walk writes every zone's final unit with FUA, which under the
 * sequential zone cache model persists the whole zone, so a
 * checkpointed zone is durable by construction.
 */
#include <algorithm>

#include "common/kernels.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "raizn/volume_impl.h"
#include "sim/event_loop.h"

namespace raizn {

Status
RaiznVolume::rewrite_replicated_md(uint32_t dev)
{
    // The replacement's metadata zones start empty: re-bind roles and
    // re-persist the replicated metadata (superblock, generation
    // counters). Non-replicated metadata that lived on the failed
    // device (its parity logs and relocated stripe units) is obsolete.
    Status st = md_->format_device(dev);
    if (!st)
        return st;

    Superblock copy = sb_;
    copy.dev_id = dev;
    MdAppend sb_app;
    sb_app.header.type = MdType::kSuperblock;
    sb_app.inline_data = copy.encode();
    bool done = false;
    Status out;
    md_->append(dev, MdZoneRole::kGeneral, std::move(sb_app), true,
                [&](Status s) {
                    out = s;
                    done = true;
                });
    loop_->run_until_pred([&] { return done; });
    if (!out)
        return out;

    for (uint32_t b = 0; b < gen_.num_blocks(); ++b) {
        MdAppend app;
        app.header = gen_.block_header(b, gen_update_seq_++);
        app.inline_data = gen_.encode_block(b);
        done = false;
        md_->append(dev, MdZoneRole::kGeneral, std::move(app), true,
                    [&](Status s) {
                        out = s;
                        done = true;
                    });
        loop_->run_until_pred([&] { return done; });
        if (!out)
            return out;
    }
    return Status::ok();
}

std::vector<uint8_t>
RaiznVolume::encode_current_rebuild_checkpoint(uint32_t dev,
                                               uint32_t state,
                                               uint32_t cur_zone) const
{
    RebuildCheckpointRecord rec;
    rec.dev = dev;
    rec.state = state;
    rec.cur_zone = cur_zone;
    rec.rebuilt.assign(zones_.size(), false);
    uint32_t done = 0;
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (zone_rebuilt(z)) {
            rec.rebuilt[z] = true;
            done++;
        }
    }
    rec.zones_done = done;
    return encode_rebuild_checkpoint(rec);
}

void
RaiznVolume::persist_rebuild_checkpoint(uint32_t dev, uint32_t state,
                                        uint32_t cur_zone,
                                        std::function<void()> durable)
{
    std::vector<uint8_t> bytes =
        encode_current_rebuild_checkpoint(dev, state, cur_zone);
    uint64_t seq = gen_update_seq_++;
    // Appends in flight plus one guard, dropped after the loop so a
    // synchronous completion cannot fire `durable` early.
    struct Pending {
        uint32_t n = 1;
        std::function<void()> durable;
    };
    auto pending = std::make_shared<Pending>();
    pending->durable = std::move(durable);
    auto arrive = [pending] {
        if (--pending->n == 0 && pending->durable)
            pending->durable();
    };
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (devs_[d]->failed())
            continue;
        // While the rebuild is in progress the target's own log is not
        // yet trustworthy (it may not even be formatted); only the
        // terminal record goes everywhere.
        if (d == dev &&
            state == RebuildCheckpointRecord::kInProgress) {
            continue;
        }
        MdAppend app;
        app.header.type = MdType::kRebuildCheckpoint;
        app.header.generation = seq;
        app.inline_data = bytes;
        pending->n++;
        md_->append(d, MdZoneRole::kGeneral, std::move(app),
                    /*durable=*/true, [arrive](Status s) {
                        if (!s.is_ok()) {
                            LOG_WARN("rebuild checkpoint append failed: "
                                     "%s",
                                     s.to_string().c_str());
                        }
                        arrive();
                    });
    }
    stats_.rebuild_checkpoints++;
    if (trace_ != nullptr) {
        trace_->instant("rebuild.checkpoint", 0, obs::kTrackMetadata,
                        loop_->now());
    }
    arrive();
}

uint64_t
RaiznVolume::expected_phys_fill(uint32_t dev, uint32_t zone,
                                uint64_t fill) const
{
    const uint32_t su = cfg_.su_sectors;
    const uint64_t ss = layout_->stripe_sectors();
    const uint64_t fs = fill / ss;
    const uint64_t rem = fill % ss;
    // One stripe unit (data or parity) per complete stripe, plus this
    // device's written share of the tail stripe.
    uint64_t e = fs * su;
    if (rem > 0) {
        const int pos = layout_->data_pos_of_dev(zone, fs, dev);
        const uint64_t start = static_cast<uint64_t>(pos) * su;
        if (pos >= 0 && rem > start)
            e += std::min<uint64_t>(su, rem - start);
    }
    return e;
}

void
RaiznVolume::relog_tail_pp(uint32_t dev, uint32_t zone)
{
    LZone &lz = zones_[zone];
    uint64_t fill = lz.wp - lz.start;
    uint64_t in_stripe = fill % layout_->stripe_sectors();
    if (in_stripe == 0)
        return;
    uint64_t stripe = fill / layout_->stripe_sectors();
    if (layout_->parity_dev(zone, stripe) != dev)
        return;
    auto it = pp_index_.find(zs_key(zone, stripe));
    if (it == pp_index_.end() || it->second.empty())
        return;
    std::vector<uint8_t> parity;
    if (store_data_)
        parity.assign(static_cast<size_t>(cfg_.su_sectors) * kSectorSize, 0);
    uint64_t end = 0;
    for (const PpRecord &rec : it->second) {
        end = std::max(end, rec.end_lba);
        if (!rec.delta.empty()) {
            xor_bytes(parity.data() + rec.lo_sector * kSectorSize,
                      rec.delta.data(), rec.delta.size());
        }
    }
    uint64_t sectors = std::min<uint64_t>(cfg_.su_sectors, in_stripe);
    if (!parity.empty())
        parity.resize(sectors * kSectorSize);
    MdAppend app = make_pp_append(
        zone, stripe, lz.start + stripe * layout_->stripe_sectors(), end,
        0, sectors, std::move(parity));
    // Durable: this is the only copy — the original record died with
    // the old device, and a crash between here and the next flush must
    // not lose the tail stripe's reconstructability.
    md_->append(dev, MdZoneRole::kParityLog, std::move(app), true,
                [](Status s) {
                    if (!s.is_ok()) {
                        LOG_WARN("tail pp re-log failed: %s",
                                 s.to_string().c_str());
                    }
                });
}

void
RaiznVolume::resume_rebuild(ProgressCb progress, StatusCb done)
{
    if (pending_rebuild_dev_ < 0) {
        loop_->schedule_after(1, [done = std::move(done)] {
            done(Status(StatusCode::kInvalidArgument,
                        "no checkpointed rebuild to resume"));
        });
        return;
    }
    rebuild_device(static_cast<uint32_t>(pending_rebuild_dev_),
                   std::move(progress), std::move(done));
}

bool
RaiznVolume::rebuild_zones(uint32_t /*dev*/, std::vector<uint32_t> *out) const
{
    if (out == nullptr)
        return true;
    // Active (open/closed) zones first, then full zones; empty and
    // resume-verified zones need no work (§4.2).
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (is_active(zones_[z].cond) && !zone_rebuilt(z))
            out->push_back(z);
    }
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (zones_[z].cond == raizn::ZoneState::kFull && !zone_rebuilt(z))
            out->push_back(z);
    }
    return true;
}

void
RaiznVolume::rebuild_prepare(uint32_t dev, StatusCb cb)
{
    for (uint32_t z = 0; z < zones_.size(); ++z) {
        if (zones_[z].cond == raizn::ZoneState::kEmpty)
            mark_zone_rebuilt(z);
    }

    // A checkpointed rebuild of `dev` resumes: trust a checkpointed
    // zone only when the target's physical write pointer matches the
    // fill the recovered logical zone implies; everything else is
    // reset and rebuilt from parity.
    const bool resume = pending_rebuild_dev_ == static_cast<int>(dev);
    pending_rebuild_dev_ = -1;
    if (resume) {
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            if (zone_rebuilt(z))
                continue;
            auto zi = devs_[dev]->zone_info(z);
            const uint64_t written = zi.is_ok() ? zi.value().written() : 0;
            if (zi.is_ok() && z < ckpt_rebuilt_.size() && ckpt_rebuilt_[z] &&
                written == expected_phys_fill(dev, z, zones_[z].written())) {
                mark_zone_rebuilt(z);
                stats_.rebuild_zones_resumed++;
                continue;
            }
            if (written > 0) {
                uint64_t phys =
                    static_cast<uint64_t>(z) * layout_->phys_zone_size();
                IoRequest rst = IoRequest::zone_reset(phys);
                rst.cause = obs::Cause::kRebuild;
                auto r = dev_sync(dev, std::move(rst));
                if (!r.status.is_ok()) {
                    cb(r.status);
                    return;
                }
            }
        }
        ckpt_rebuilt_.clear();
    }

    // The checkpoint must be durable on the survivors before anything
    // is written to the target: a crash in between would otherwise
    // leave a half-written device that the next mount cannot tell from
    // a healthy one.
    bool logged = false;
    persist_rebuild_checkpoint(dev, RebuildCheckpointRecord::kInProgress,
                               ~0u, [&logged] { logged = true; });
    loop_->run_until_pred([&logged] { return logged; });

    Status st = rewrite_replicated_md(dev);
    if (!st) {
        cb(st);
        return;
    }

    if (resume) {
        // Re-formatting the target's metadata zones wiped whatever the
        // pre-crash rebuild had logged there; regenerate it from the
        // recovered in-memory state.
        for (const Relocation *rel : reloc_.all()) {
            if (rel->dev != dev)
                continue;
            MdAppend app;
            app.header.type = MdType::kRelocatedSu;
            app.header.start_lba = rel->lba;
            app.header.end_lba = rel->lba + rel->nsectors;
            app.header.generation = gen_.get(layout_->zone_of(rel->lba));
            app.inline_data.assign(8, 0);
            app.set_payload(rel->nsectors, metered_copy(rel->cached));
            md_->append(dev, MdZoneRole::kGeneral, std::move(app), true,
                        [](Status) {});
        }
        for (uint32_t z = 0; z < zones_.size(); ++z) {
            if (zone_rebuilt(z) && zones_[z].cond != raizn::ZoneState::kEmpty)
                relog_tail_pp(dev, z);
        }
    }
    cb(Status::ok());
}

void
RaiznVolume::rebuild_zone_open(uint32_t /*dev*/, uint32_t zone,
                               std::function<void(Status, uint64_t)> cb)
{
    LZone &lz = zones_[zone];
    lz.blocked = true; // writes queue while this zone rebuilds
    cb(Status::ok(), div_ceil(lz.written(), layout_->stripe_sectors()));
}

ZonedArray::RebuildExtent
RaiznVolume::rebuild_extent(uint32_t dev, uint32_t zone, uint64_t s) const
{
    // Sectors this device holds in stripe s, given the zone fill.
    const uint64_t fill = zones_[zone].written();
    const uint32_t su = cfg_.su_sectors;
    const uint64_t ss = layout_->stripe_sectors();
    uint64_t len = 0;
    int pos = layout_->data_pos_of_dev(zone, s, dev);
    if (pos < 0) { // parity: present only for complete stripes
        len = (s + 1) * ss <= fill ? su : 0;
    } else {
        uint64_t start = s * ss + static_cast<uint64_t>(pos) * su;
        if (fill > start)
            len = std::min<uint64_t>(su, fill - start);
    }
    return {layout_->slot_pba(zone, s), static_cast<uint32_t>(len)};
}

void
RaiznVolume::rebuild_read(uint32_t dev, uint32_t zone, uint64_t s,
                          const RebuildExtent &e, DataCb cb)
{
    reconstruct_stripe_unit(zone, s, layout_->data_pos_of_dev(zone, s, dev),
                            0, e.nsectors, obs::Cause::kRebuild,
                            std::move(cb));
}

void
RaiznVolume::rebuild_write(uint32_t dev, uint32_t /*zone*/, IoRequest req,
                           IoCallback cb)
{
    stats_.stripes_rebuilt++;
    // Target writes bypass dev_submit (no retry against a fresh
    // replacement), so the device-track span is explicit.
    uint64_t wtok = trace_ != nullptr
        ? trace_->begin_span(req.trace_stage, req.trace_req,
                             obs::kTrackDevBase + dev, loop_->now())
        : 0;
    devs_[dev]->submit(std::move(req),
                       [this, wtok, cb = std::move(cb)](IoResult r) {
                           if (trace_ != nullptr && wtok != 0)
                               trace_->end_span(wtok, loop_->now());
                           cb(std::move(r));
                       });
}

void
RaiznVolume::rebuild_zone_done(uint32_t dev, uint32_t zone, Status s,
                               StatusCb cb)
{
    // Re-log partial parity for the tail stripe if this device is its
    // parity holder (the old device's parity log is gone).
    relog_tail_pp(dev, zone);
    stats_.zones_rebuilt++;
    persist_rebuild_checkpoint(dev, RebuildCheckpointRecord::kInProgress,
                               ~0u);
    zones_[zone].blocked = false;
    drain_waiters(zone);
    cb(s);
}

void
RaiznVolume::rebuild_finish(uint32_t dev, Status s, StatusCb cb)
{
    if (!s.is_ok()) {
        // The target stays failed, and the last in-progress checkpoint
        // stays the newest: a remount resumes this rebuild.
        cb(s);
        return;
    }
    // Relocations and burned ranges on the rebuilt device are folded
    // into the reconstructed data.
    std::vector<uint64_t> drop;
    for (const Relocation *rel : reloc_.all()) {
        if (rel->dev == dev)
            drop.push_back(rel->lba);
    }
    for (uint64_t lba : drop)
        reloc_.drop_zone(lba, lba + 1);
    for (uint32_t z = 0; z < zones_.size(); ++z)
        burned_.clear_dev_zone(dev, z);
    // Success is reported once "done" is durable on every survivor: a
    // power cut before that remounts with the rebuild still pending.
    persist_rebuild_checkpoint(dev, RebuildCheckpointRecord::kDone, ~0u,
                               [cb = std::move(cb), s] { cb(s); });
}

} // namespace raizn
