#include "env/zoned_env.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

/// Synchronously runs a volume op.
IoResult
vol_sync(EventLoop *loop, const std::function<void(IoCallback)> &op)
{
    IoResult out;
    bool done = false;
    op([&](IoResult r) {
        out = std::move(r);
        done = true;
    });
    loop->run_until_pred([&] { return done; });
    return out;
}

} // namespace

class ZonedWritableFile : public WritableFile
{
  public:
    ZonedWritableFile(ZonedEnv *env, std::string name)
        : env_(env), name_(std::move(name))
    {
    }

    ~ZonedWritableFile() override { close(); }

    Status
    append(const std::vector<uint8_t> &data) override
    {
        if (closed_)
            return Status(StatusCode::kInvalidArgument, "closed");
        size_ += data.size();
        env_->stats_.bytes_appended += data.size();
        if (buffer_.empty() && data.size() >= kSpillBytes) {
            // Direct path: the whole sectors go out straight from the
            // caller's bytes and only the tail is buffered -- the same
            // device writes as buffering everything and spilling.
            size_t whole = data.size() / kSectorSize * kSectorSize;
            Status st = write_out({data.data(), whole});
            if (!st) {
                buffer_.assign(data.begin(), data.end());
                return st;
            }
            buffer_.assign(data.begin() + static_cast<ptrdiff_t>(whole),
                           data.end());
            return Status::ok();
        }
        buffer_.insert(buffer_.end(), data.begin(), data.end());
        // Spill full sectors opportunistically in large chunks.
        if (buffer_.size() >= kSpillBytes)
            return spill(false);
        return Status::ok();
    }

    Status
    sync() override
    {
        Status st = spill(true);
        if (!st)
            return st;
        return env_->sync_volume();
    }

    Status
    close() override
    {
        if (closed_)
            return Status::ok();
        Status st = spill(true);
        closed_ = true;
        auto it = env_->files_.find(name_);
        if (it != env_->files_.end())
            it->second.open_for_write = false;
        return st;
    }

    uint64_t size() const override { return size_; }

  private:
    static constexpr size_t kSpillBytes = 256 * kKiB;

    /// Writes buffered bytes out. `pad` forces the partial tail sector
    /// (ZNS cannot rewrite it later, so the pad is wasted space —
    /// exactly the cost a zoned WAL pays).
    Status
    spill(bool pad)
    {
        size_t whole = buffer_.size() / kSectorSize * kSectorSize;
        size_t take = pad ? buffer_.size() : whole;
        if (take == 0)
            return Status::ok();
        Status st = write_out({buffer_.data(), take});
        if (!st)
            return st;
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<ptrdiff_t>(take));
        return Status::ok();
    }

    /// Appends `bytes` to the file's extents (the last sector padded).
    Status
    write_out(std::span<const uint8_t> bytes)
    {
        auto res = env_->append_sectors(name_, bytes);
        if (!res.is_ok())
            return res.status();
        env_->files_[name_].size_bytes += bytes.size();
        return Status::ok();
    }

    ZonedEnv *env_;
    std::string name_;
    std::vector<uint8_t> buffer_;
    uint64_t size_ = 0;
    bool closed_ = false;
};

class ZonedReadableFile : public ReadableFile
{
  public:
    ZonedReadableFile(ZonedEnv *env, const ZonedEnv::FileMeta *meta)
        : env_(env), meta_(meta)
    {
    }

    Result<std::vector<uint8_t>>
    read(uint64_t offset, uint64_t length) override
    {
        if (offset + length > meta_->size_bytes) {
            if (offset >= meta_->size_bytes)
                return Status(StatusCode::kInvalidArgument, "past EOF");
            length = meta_->size_bytes - offset;
        }
        env_->stats_.bytes_read += length;
        std::vector<uint8_t> out;
        uint64_t got = 0;
        // Walk extents; each extent holds sectors*kSectorSize bytes of
        // the file's byte stream except trailing pad in its last
        // sector, which only exists at spill boundaries. We track the
        // byte length per extent in `extent_bytes` of the meta.
        uint64_t file_off = 0;
        for (size_t i = 0; i < meta_->extents.size() && got < length;
             ++i) {
            const auto &ext = meta_->extents[i];
            uint64_t ext_bytes = env_->extent_bytes(*meta_, i);
            if (offset + got >= file_off + ext_bytes) {
                file_off += ext_bytes;
                continue;
            }
            uint64_t in_ext = offset + got - file_off;
            uint64_t take =
                std::min(length - got, ext_bytes - in_ext);
            // Sector-aligned volume read covering [in_ext, in_ext+take).
            uint64_t first_sector = in_ext / kSectorSize;
            uint64_t last_sector =
                (in_ext + take + kSectorSize - 1) / kSectorSize;
            auto r = vol_sync(env_->loop_, [&](IoCallback cb) {
                env_->vol_->read(
                    ext.lba + first_sector,
                    static_cast<uint32_t>(last_sector - first_sector),
                    std::move(cb));
            });
            if (!r.status.is_ok())
                return r.status;
            const uint64_t skip = in_ext - first_sector * kSectorSize;
            if (take == length && !r.data.empty()) {
                // One extent: hand back the volume's buffer, trimmed
                // in place.
                return std::move(r.data).slice(skip, take).to_vector();
            }
            if (out.capacity() == 0) {
                prof::count_alloc(length);
                out.reserve(length);
            }
            if (r.data.empty()) {
                out.resize(out.size() + take); // timing-only: zeros
            } else {
                prof::count_copy(take);
                out.insert(out.end(), r.data.begin() + skip,
                           r.data.begin() + skip + take);
            }
            got += take;
            file_off += ext_bytes;
        }
        out.resize(length);
        return out;
    }

    uint64_t size() const override { return meta_->size_bytes; }

  private:
    ZonedEnv *env_;
    const ZonedEnv::FileMeta *meta_;
};

ZonedEnv::ZonedEnv(EventLoop *loop, RaiznVolume *vol)
    : loop_(loop), vol_(vol)
{
    zones_.resize(vol_->num_zones());
}

uint64_t
ZonedEnv::extent_bytes(const FileMeta &meta, size_t idx) const
{
    // All extents carry sectors*kSectorSize bytes except where a spill
    // padded: we record the exact byte count in extent_valid_bytes.
    return meta.extent_valid[idx];
}

Status
ZonedEnv::sync_volume()
{
    auto r = vol_sync(loop_, [&](IoCallback cb) {
        vol_->flush(std::move(cb));
    });
    return r.status;
}

Status
ZonedEnv::ensure_write_zone(uint64_t needed_sectors)
{
    (void)needed_sectors;
    if (active_zone_ >= 0) {
        auto zi = vol_->zone_info(static_cast<uint32_t>(active_zone_));
        if (zi.is_ok() && zi.value().wp < zi.value().start +
            zi.value().capacity) {
            return Status::ok();
        }
        zones_[static_cast<size_t>(active_zone_)].open = false;
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
    zones_[static_cast<size_t>(empty)].open = true;
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
        if (zones_[z].live_sectors < best_live) {
            best_live = zones_[z].live_sectors;
            victim = static_cast<int>(z);
        }
    }
    if (victim < 0)
        return Status(StatusCode::kNoSpace, "nothing to clean");
    uint32_t vz = static_cast<uint32_t>(victim);
    uint64_t zstart = vol_->layout().zone_start_lba(vz);
    uint64_t zend = zstart + vol_->zone_capacity();

    // Relocate live extents of every file that intersects the victim.
    cleaning_ = true;
    for (auto &[name, meta] : files_) {
        for (size_t i = 0; i < meta.extents.size(); ++i) {
            Extent ext = meta.extents[i];
            uint64_t valid = meta.extent_valid[i];
            if (ext.lba < zstart || ext.lba >= zend)
                continue;
            // Read the live bytes and append them elsewhere; the move
            // may split across zones.
            auto r = vol_sync(loop_, [&](IoCallback cb) {
                vol_->read(ext.lba, static_cast<uint32_t>(ext.sectors),
                           std::move(cb));
            });
            if (!r.status.is_ok()) {
                cleaning_ = false;
                return r.status;
            }
            std::vector<uint8_t> data = std::move(r.data).to_vector();
            if (data.empty())
                data.assign(ext.sectors * kSectorSize, 0);
            stats_.gc_relocated_bytes += data.size();

            std::vector<Extent> repl;
            std::vector<uint64_t> repl_valid;
            uint64_t done = 0, bytes_left = valid;
            while (done < ext.sectors) {
                auto moved = append_raw(
                    std::span<const uint8_t>(data).subspan(done *
                                                           kSectorSize));
                if (!moved.is_ok()) {
                    cleaning_ = false;
                    return moved.status();
                }
                uint64_t part_bytes = std::min(
                    bytes_left, moved.value().sectors * kSectorSize);
                repl.push_back(moved.value());
                repl_valid.push_back(part_bytes);
                done += moved.value().sectors;
                bytes_left -= part_bytes;
            }
            zones_[vz].live_sectors -= ext.sectors;
            meta.extents.erase(meta.extents.begin() +
                               static_cast<ptrdiff_t>(i));
            meta.extent_valid.erase(meta.extent_valid.begin() +
                                    static_cast<ptrdiff_t>(i));
            meta.extents.insert(meta.extents.begin() +
                                    static_cast<ptrdiff_t>(i),
                                repl.begin(), repl.end());
            meta.extent_valid.insert(meta.extent_valid.begin() +
                                         static_cast<ptrdiff_t>(i),
                                     repl_valid.begin(),
                                     repl_valid.end());
            i += repl.size() - 1;
        }
    }
    cleaning_ = false;
    assert(zones_[vz].live_sectors == 0);
    auto r = vol_sync(loop_, [&](IoCallback cb) {
        vol_->reset_zone(vz, std::move(cb));
    });
    if (!r.status.is_ok())
        return r.status;
    stats_.zones_reclaimed++;
    return Status::ok();
}

Result<ZonedEnv::Extent>
ZonedEnv::append_raw(std::span<const uint8_t> bytes)
{
    uint64_t sectors = div_ceil(bytes.size(), kSectorSize);
    Status st = ensure_write_zone(sectors);
    if (!st)
        return st;
    uint32_t z = static_cast<uint32_t>(active_zone_);
    auto zi = vol_->zone_info(z);
    uint64_t room =
        zi.value().start + zi.value().capacity - zi.value().wp;
    if (sectors > room) {
        // Caller splits; report how much fits via a short write.
        sectors = room;
    }
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
    auto r = vol_sync(loop_, [&](IoCallback cb) {
        vol_->write(lba, std::move(chunk), wf, std::move(cb));
    });
    if (!r.status.is_ok())
        return r.status;
    zones_[z].live_sectors += sectors;
    return Extent{lba, sectors};
}

Result<ZonedEnv::Extent>
ZonedEnv::append_sectors(const std::string &file,
                         std::span<const uint8_t> bytes)
{
    FileMeta &meta = files_[file];
    uint64_t total = div_ceil(bytes.size(), kSectorSize);
    uint64_t done = 0;
    uint64_t bytes_left = bytes.size();
    Extent first{0, 0};
    while (done < total) {
        auto res = append_raw(bytes.subspan(done * kSectorSize));
        if (!res.is_ok())
            return res.status();
        Extent ext = res.value();
        if (done == 0)
            first = ext;
        uint64_t ext_bytes =
            std::min(bytes_left, ext.sectors * kSectorSize);
        // Merge with the previous extent when physically contiguous
        // and the previous extent had no pad.
        if (!meta.extents.empty()) {
            Extent &prev = meta.extents.back();
            uint64_t prev_bytes = meta.extent_valid.back();
            bool same_zone = vol_->layout().zone_of(prev.lba) ==
                vol_->layout().zone_of(ext.lba + ext.sectors - 1);
            if (same_zone && prev.lba + prev.sectors == ext.lba &&
                prev_bytes == prev.sectors * kSectorSize) {
                prev.sectors += ext.sectors;
                meta.extent_valid.back() += ext_bytes;
                done += ext.sectors;
                bytes_left -= ext_bytes;
                continue;
            }
        }
        meta.extents.push_back(ext);
        meta.extent_valid.push_back(ext_bytes);
        done += ext.sectors;
        bytes_left -= ext_bytes;
    }
    return first;
}

Result<std::unique_ptr<WritableFile>>
ZonedEnv::new_writable(const std::string &name)
{
    if (files_.count(name))
        delete_file(name);
    FileMeta meta;
    meta.open_for_write = true;
    files_[name] = std::move(meta);
    stats_.files_created++;
    return std::unique_ptr<WritableFile>(
        new ZonedWritableFile(this, name));
}

Result<std::unique_ptr<ReadableFile>>
ZonedEnv::open_readable(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    return std::unique_ptr<ReadableFile>(
        new ZonedReadableFile(this, &it->second));
}

void
ZonedEnv::account_delete(const FileMeta &meta)
{
    for (const Extent &ext : meta.extents) {
        uint32_t z = vol_->layout().zone_of(ext.lba);
        assert(zones_[z].live_sectors >= ext.sectors);
        zones_[z].live_sectors -= ext.sectors;
        // Fully dead, fully written zones reset for free.
        if (zones_[z].live_sectors == 0 &&
            static_cast<int>(z) != active_zone_) {
            auto zi = vol_->zone_info(z);
            if (zi.is_ok() && zi.value().full()) {
                vol_sync(loop_, [&](IoCallback cb) {
                    vol_->reset_zone(z, std::move(cb));
                });
                stats_.zones_reclaimed++;
            }
        }
    }
}

Status
ZonedEnv::delete_file(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    account_delete(it->second);
    files_.erase(it);
    stats_.files_deleted++;
    return Status::ok();
}

size_t
ZonedEnv::extent_count(const std::string &name) const
{
    auto it = files_.find(name);
    return it == files_.end() ? 0 : it->second.extents.size();
}

bool
ZonedEnv::file_exists(const std::string &name) const
{
    return files_.count(name) > 0;
}

Result<uint64_t>
ZonedEnv::file_size(const std::string &name) const
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    return it->second.size_bytes;
}

std::vector<std::string>
ZonedEnv::list_files() const
{
    std::vector<std::string> out;
    for (const auto &[name, meta] : files_)
        out.push_back(name);
    return out;
}

uint64_t
ZonedEnv::free_bytes() const
{
    uint64_t live = 0;
    for (const ZoneMeta &z : zones_)
        live += z.live_sectors;
    return (vol_->capacity() - live) * kSectorSize;
}

} // namespace raizn
