#include "env/zoned_env.h"

#include <algorithm>
#include <cassert>

namespace raizn {

ZonedEnv::ZonedEnv(EventLoop *loop, ZonedArray *vol)
    : FileEnv(loop, vol), zone_cap_(vol->zone_capacity()),
      live_sectors_(vol->num_zones(), 0)
{
}

Status
ZonedEnv::ensure_write_zone()
{
    if (active_zone_ >= 0) {
        auto zi = vol_->zone_info(static_cast<uint32_t>(active_zone_));
        if (zi.is_ok() && zi.value().wp < zi.value().start +
            zi.value().capacity) {
            return Status::ok();
        }
        active_zone_ = -1;
    }
    // Find an empty zone; keep one in reserve for the cleaner.
    int empty = -1, empties = 0;
    for (uint32_t z = 0; z < vol_->num_zones(); ++z) {
        auto zi = vol_->zone_info(z);
        if (zi.is_ok() && zi.value().empty()) {
            empties++;
            if (empty < 0)
                empty = static_cast<int>(z);
        }
    }
    if (empties <= 1 && !cleaning_) {
        Status st = clean_one_zone();
        if (!st)
            return st;
        for (uint32_t z = 0; z < vol_->num_zones(); ++z) {
            auto zi = vol_->zone_info(z);
            if (zi.is_ok() && zi.value().empty()) {
                empty = static_cast<int>(z);
                break;
            }
        }
    }
    if (empty < 0)
        return Status(StatusCode::kNoSpace, "no empty zone");
    active_zone_ = empty;
    return Status::ok();
}

Status
ZonedEnv::clean_one_zone()
{
    // Greedy victim: non-active zone with the least live data (but
    // some written data).
    int victim = -1;
    uint64_t best_live = UINT64_MAX;
    for (uint32_t z = 0; z < vol_->num_zones(); ++z) {
        if (static_cast<int>(z) == active_zone_)
            continue;
        auto zi = vol_->zone_info(z);
        if (!zi.is_ok() || zi.value().empty())
            continue;
        if (live_sectors_[z] < best_live) {
            best_live = live_sectors_[z];
            victim = static_cast<int>(z);
        }
    }
    if (victim < 0)
        return Status(StatusCode::kNoSpace, "nothing to clean");
    const uint32_t vz = static_cast<uint32_t>(victim);
    cleaning_ = true;
    Status st = relocate_zone(vz);
    cleaning_ = false;
    if (!st)
        return st;
    assert(live_sectors_[vz] == 0);
    auto r = vol_sync([&](IoCallback cb) {
        vol_->reset_zone(vz, std::move(cb));
    });
    if (!r.status.is_ok())
        return r.status;
    stats_.zones_reclaimed++;
    return Status::ok();
}

Status
ZonedEnv::relocate_zone(uint32_t vz)
{
    // Relocate live extents of every file that intersects the victim.
    for (auto &[name, meta] : files_) {
        for (size_t i = 0; i < meta.extents.size(); ++i) {
            const Extent ext = meta.extents[i];
            if (zone_of(ext.lba) != vz)
                continue;
            // Read the live bytes and append them elsewhere; the move
            // may split across zones.
            auto r = vol_sync([&](IoCallback cb) {
                vol_->read(ext.lba, static_cast<uint32_t>(ext.sectors),
                           std::move(cb));
            });
            if (!r.status.is_ok())
                return r.status;
            std::vector<uint8_t> data = std::move(r.data).to_vector();
            if (data.empty())
                data.assign(ext.sectors * kSectorSize, 0);
            stats_.gc_relocated_bytes += data.size();

            std::vector<Extent> repl;
            uint64_t done = 0, bytes_left = ext.valid;
            while (done < ext.sectors) {
                auto moved = append_raw(
                    std::span<const uint8_t>(data).subspan(done *
                                                           kSectorSize));
                if (!moved.is_ok())
                    return moved.status();
                Extent part = moved.value();
                part.valid = std::min(bytes_left, part.sectors * kSectorSize);
                repl.push_back(part);
                done += part.sectors;
                bytes_left -= part.valid;
            }
            live_sectors_[vz] -= ext.sectors;
            meta.extents.erase(meta.extents.begin() +
                               static_cast<ptrdiff_t>(i));
            meta.extents.insert(meta.extents.begin() +
                                    static_cast<ptrdiff_t>(i),
                                repl.begin(), repl.end());
            i += repl.size() - 1;
        }
    }
    return Status::ok();
}

Result<FileEnv::Extent>
ZonedEnv::append_raw(std::span<const uint8_t> bytes)
{
    Status st = ensure_write_zone();
    if (!st)
        return st;
    uint32_t z = static_cast<uint32_t>(active_zone_);
    auto zi = vol_->zone_info(z);
    // Past the room left in the zone the caller splits: a short write.
    const uint64_t sectors =
        std::min(div_ceil(bytes.size(), kSectorSize),
                 zi.value().start + zi.value().capacity - zi.value().wp);
    uint64_t lba = zi.value().wp;
    const size_t chunk_bytes = sectors * kSectorSize;
    const size_t copy = std::min(bytes.size(), chunk_bytes);
    // The env's one copy, into storage an earlier chunk handed back.
    IoBuf chunk = IoBuf::recycled(bytes.first(copy), chunk_bytes);
    // Relocation writes issued by the cleaner are environment GC, not
    // new user data: the provenance ledger must keep them out of the
    // write-amplification denominator.
    WriteFlags wf;
    wf.origin =
        cleaning_ ? obs::Cause::kGc : obs::Cause::kUserData;
    auto r = vol_sync([&](IoCallback cb) {
        vol_->write(lba, std::move(chunk), wf, std::move(cb));
    });
    if (!r.status.is_ok())
        return r.status;
    live_sectors_[z] += sectors;
    return Extent{lba, sectors, copy};
}

Status
ZonedEnv::place(FileMeta &meta, std::span<const uint8_t> bytes)
{
    const uint64_t total = div_ceil(bytes.size(), kSectorSize);
    uint64_t done = 0;
    while (done < total) {
        auto res = append_raw(bytes.subspan(done * kSectorSize));
        if (!res.is_ok())
            return res.status();
        const Extent ext = res.value();
        done += ext.sectors;
        // Merge with the previous extent when physically contiguous in
        // one zone and the previous extent had no pad.
        if (!meta.extents.empty()) {
            Extent &prev = meta.extents.back();
            if (zone_of(prev.lba) == zone_of(ext.lba + ext.sectors - 1) &&
                prev.lba + prev.sectors == ext.lba &&
                prev.valid == prev.sectors * kSectorSize) {
                prev.sectors += ext.sectors;
                prev.valid += ext.valid;
                continue;
            }
        }
        meta.extents.push_back(ext);
    }
    return Status::ok();
}

void
ZonedEnv::release(const FileMeta &meta)
{
    for (const Extent &ext : meta.extents) {
        uint32_t z = zone_of(ext.lba);
        assert(live_sectors_[z] >= ext.sectors);
        live_sectors_[z] -= ext.sectors;
        // Fully dead, fully written zones reset for free.
        if (live_sectors_[z] == 0 && static_cast<int>(z) != active_zone_) {
            auto zi = vol_->zone_info(z);
            if (zi.is_ok() && zi.value().full()) {
                vol_sync([&](IoCallback cb) {
                    vol_->reset_zone(z, std::move(cb));
                });
                stats_.zones_reclaimed++;
            }
        }
    }
}

uint64_t
ZonedEnv::free_bytes() const
{
    uint64_t live = 0;
    for (uint64_t z : live_sectors_)
        live += z;
    return (vol_->capacity() - live) * kSectorSize;
}

} // namespace raizn
