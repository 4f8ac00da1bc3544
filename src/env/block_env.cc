#include "env/block_env.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/prof/prof.h"

namespace raizn {

BlockEnv::BlockEnv(EventLoop *loop, ZonedArray *vol) : FileEnv(loop, vol)
{
    free_[0] = vol_->capacity();
}

void
BlockEnv::map_sector(const FileMeta &meta, uint64_t file_sector,
                     uint64_t *lba, uint64_t *run) const
{
    uint64_t off = 0;
    for (const Extent &e : meta.extents) {
        if (file_sector < off + e.sectors) {
            *lba = e.lba + (file_sector - off);
            *run = e.sectors - (file_sector - off);
            return;
        }
        off += e.sectors;
    }
    RAIZN_PANIC("file sector beyond extents");
}

Status
BlockEnv::place(FileMeta &meta, std::span<const uint8_t> bytes)
{
    // The partial tail sector is rewritten in place (block devices
    // allow overwrites), so the stream written is the old tail, then
    // `bytes`, zero-padded to a sector; each volume write gets its one
    // buffer cut from it.
    uint64_t tail_bytes = meta.size_bytes % kSectorSize;
    uint64_t write_off = meta.size_bytes - tail_bytes; // bytes
    std::vector<uint8_t> tail;
    if (tail_bytes > 0) {
        auto old = read_extents(meta, write_off, tail_bytes);
        if (!old.is_ok())
            return old.status();
        tail = std::move(old).value();
    }
    const uint64_t stream = tail_bytes + bytes.size();
    uint64_t need_sectors = div_ceil(stream, kSectorSize);
    uint64_t have_sectors = 0;
    for (const auto &e : meta.extents)
        have_sectors += e.sectors;
    uint64_t first_sector = write_off / kSectorSize;
    if (first_sector + need_sectors > have_sectors) {
        auto alloc = allocate(first_sector + need_sectors - have_sectors);
        if (!alloc.is_ok())
            return alloc.status();
        for (const auto &e : alloc.value())
            meta.extents.push_back(e);
    }
    // Write the stream's sectors through the extent map.
    uint64_t done = 0;
    while (done < need_sectors) {
        uint64_t lba, run;
        map_sector(meta, first_sector + done, &lba, &run);
        run = std::min(run, need_sectors - done);
        const uint64_t lo = done * kSectorSize;
        const uint64_t hi = (done + run) * kSectorSize;
        std::vector<uint8_t> part;
        part.reserve(hi - lo);
        if (lo < tail_bytes) {
            part.insert(part.end(),
                        tail.begin() + static_cast<ptrdiff_t>(lo),
                        tail.begin() + static_cast<ptrdiff_t>(
                                           std::min(hi, tail_bytes)));
        }
        const uint64_t blo = std::max(lo, tail_bytes) - tail_bytes;
        const uint64_t bhi = std::min(hi, stream) - tail_bytes;
        if (bhi > blo)
            part.insert(part.end(), bytes.begin() + blo,
                        bytes.begin() + bhi);
        prof::count_alloc(hi - lo);
        prof::count_copy(part.size());
        part.resize(hi - lo); // zero pad
        auto r = vol_sync([&](IoCallback cb) {
            vol_->write(lba, std::move(part), {}, std::move(cb));
        });
        if (!r.status.is_ok())
            return r.status;
        done += run;
    }
    // The file's bytes fill its extents in order.
    uint64_t left = meta.size_bytes + bytes.size();
    for (Extent &e : meta.extents) {
        e.valid = std::min(left, e.sectors * kSectorSize);
        left -= e.valid;
    }
    return Status::ok();
}

Result<std::vector<FileEnv::Extent>>
BlockEnv::allocate(uint64_t sectors)
{
    // Allocate in 256-sector (1 MiB) granules to limit fragmentation.
    sectors = round_up(sectors, 256);
    std::vector<Extent> out;
    while (sectors > 0) {
        // First fit.
        auto best = free_.end();
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second > 0) {
                best = it;
                break;
            }
        }
        if (best == free_.end()) {
            for (const Extent &e : out)
                free_extent(e);
            return Status(StatusCode::kNoSpace, "env full");
        }
        uint64_t take = std::min(sectors, best->second);
        out.push_back(Extent{best->first, take, 0});
        uint64_t new_lba = best->first + take;
        uint64_t new_len = best->second - take;
        free_.erase(best);
        if (new_len > 0)
            free_[new_lba] = new_len;
        sectors -= take;
    }
    return out;
}

void
BlockEnv::free_extent(const Extent &e)
{
    free_[e.lba] = e.sectors;
    auto it = free_.find(e.lba);
    if (it != free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_.erase(it);
            it = prev;
        }
    }
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        free_.erase(next);
    }
}

void
BlockEnv::release(const FileMeta &meta)
{
    for (const Extent &e : meta.extents)
        free_extent(e);
}

uint64_t
BlockEnv::free_bytes() const
{
    uint64_t sectors = 0;
    for (const auto &[lba, len] : free_)
        sectors += len;
    return sectors * kSectorSize;
}

} // namespace raizn
