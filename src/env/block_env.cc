#include "env/block_env.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

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

class BlockWritableFile : public WritableFile
{
  public:
    BlockWritableFile(BlockEnv *env, std::string name)
        : env_(env), name_(std::move(name))
    {
    }

    ~BlockWritableFile() override { close(); }

    Status
    append(const std::vector<uint8_t> &data) override
    {
        if (closed_)
            return Status(StatusCode::kInvalidArgument, "closed");
        size_ += data.size();
        env_->stats_.bytes_appended += data.size();
        if (buffer_.empty() && data.size() >= kSpillBytes) {
            // Direct path: written straight from the caller's bytes,
            // the same device writes as buffering them and spilling.
            Status st = spill(data);
            if (!st)
                buffer_.assign(data.begin(), data.end());
            return st;
        }
        buffer_.insert(buffer_.end(), data.begin(), data.end());
        if (buffer_.size() >= kSpillBytes)
            return spill_buffer();
        return Status::ok();
    }

    Status
    sync() override
    {
        Status st = spill_buffer();
        if (!st)
            return st;
        return env_->sync_volume();
    }

    Status
    close() override
    {
        if (closed_)
            return Status::ok();
        Status st = spill_buffer();
        closed_ = true;
        return st;
    }

    uint64_t size() const override { return size_; }

  private:
    static constexpr size_t kSpillBytes = 256 * kKiB;

    Status
    spill_buffer()
    {
        Status st = spill(buffer_);
        if (st)
            buffer_.clear();
        return st;
    }

    /// Appends `bytes` to the file. The partial tail sector is
    /// rewritten in place (block devices allow overwrites), so the
    /// stream written is the old tail, then `bytes`, zero-padded to a
    /// sector; each volume write gets its one buffer cut from it.
    Status
    spill(std::span<const uint8_t> bytes)
    {
        if (bytes.empty())
            return Status::ok();
        auto &meta = env_->files_[name_];
        uint64_t tail_bytes = meta.size_bytes % kSectorSize;
        uint64_t write_off = meta.size_bytes - tail_bytes; // bytes
        std::vector<uint8_t> tail;
        if (tail_bytes > 0) {
            auto old = env_->read_span(meta, write_off, tail_bytes);
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
            auto alloc = env_->allocate(first_sector + need_sectors -
                                        have_sectors);
            if (!alloc.is_ok())
                return alloc.status();
            for (const auto &e : alloc.value())
                meta.extents.push_back(e);
        }
        // Write the stream's sectors through the extent map.
        uint64_t done = 0;
        while (done < need_sectors) {
            uint64_t lba, run;
            env_->map_sector(meta, first_sector + done, &lba, &run);
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
            auto r = vol_sync(env_->loop_, [&](IoCallback cb) {
                env_->vol_->write(lba, std::move(part), {}, std::move(cb));
            });
            if (!r.status.is_ok())
                return r.status;
            done += run;
        }
        meta.size_bytes += bytes.size();
        return Status::ok();
    }

    BlockEnv *env_;
    std::string name_;
    std::vector<uint8_t> buffer_;
    uint64_t size_ = 0;
    bool closed_ = false;
};

class BlockReadableFile : public ReadableFile
{
  public:
    BlockReadableFile(BlockEnv *env, const BlockEnv::FileMeta *meta)
        : env_(env), meta_(meta)
    {
    }

    Result<std::vector<uint8_t>>
    read(uint64_t offset, uint64_t length) override
    {
        if (offset >= meta_->size_bytes)
            return Status(StatusCode::kInvalidArgument, "past EOF");
        length = std::min(length, meta_->size_bytes - offset);
        env_->stats_.bytes_read += length;
        return env_->read_span(*meta_, offset, length);
    }

    uint64_t size() const override { return meta_->size_bytes; }

  private:
    BlockEnv *env_;
    const BlockEnv::FileMeta *meta_;
};

BlockEnv::BlockEnv(EventLoop *loop, MdVolume *vol)
    : loop_(loop), vol_(vol)
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

Result<std::vector<uint8_t>>
BlockEnv::read_span(const FileMeta &meta, uint64_t offset,
                    uint64_t length)
{
    std::vector<uint8_t> out;
    uint64_t got = 0;
    while (got < length) {
        uint64_t byte_off = offset + got;
        uint64_t sector = byte_off / kSectorSize;
        uint64_t in_sector = byte_off % kSectorSize;
        uint64_t lba, run;
        map_sector(meta, sector, &lba, &run);
        uint64_t span_bytes =
            std::min(length - got, run * kSectorSize - in_sector);
        uint32_t nsectors = static_cast<uint32_t>(
            div_ceil(in_sector + span_bytes, kSectorSize));
        auto r = vol_sync(loop_, [&](IoCallback cb) {
            vol_->read(lba, nsectors, std::move(cb));
        });
        if (!r.status.is_ok())
            return r.status;
        if (span_bytes == length && !r.data.empty()) {
            // One extent: hand back the volume's buffer, trimmed in
            // place.
            return std::move(r.data).slice(in_sector, span_bytes).to_vector();
        }
        if (out.capacity() == 0) {
            prof::count_alloc(length);
            out.reserve(length);
        }
        if (r.data.empty()) {
            out.resize(out.size() + span_bytes); // timing-only: zeros
        } else {
            prof::count_copy(span_bytes);
            out.insert(out.end(), r.data.begin() + in_sector,
                       r.data.begin() + in_sector + span_bytes);
        }
        got += span_bytes;
    }
    return out;
}

Result<std::vector<BlockEnv::Extent>>
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
            release(out);
            return Status(StatusCode::kNoSpace, "env full");
        }
        uint64_t take = std::min(sectors, best->second);
        out.push_back(Extent{best->first, take});
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
BlockEnv::release(const std::vector<Extent> &extents)
{
    for (const Extent &e : extents) {
        free_[e.lba] = e.sectors;
        // Coalesce with neighbours.
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
        if (next != free_.end() &&
            it->first + it->second == next->first) {
            it->second += next->second;
            free_.erase(next);
        }
    }
}

Status
BlockEnv::sync_volume()
{
    auto r = vol_sync(loop_, [&](IoCallback cb) {
        vol_->flush(std::move(cb));
    });
    return r.status;
}

Result<std::unique_ptr<WritableFile>>
BlockEnv::new_writable(const std::string &name)
{
    if (files_.count(name))
        delete_file(name);
    files_[name] = FileMeta{};
    stats_.files_created++;
    return std::unique_ptr<WritableFile>(
        new BlockWritableFile(this, name));
}

Result<std::unique_ptr<ReadableFile>>
BlockEnv::open_readable(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    return std::unique_ptr<ReadableFile>(
        new BlockReadableFile(this, &it->second));
}

Status
BlockEnv::delete_file(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    release(it->second.extents);
    files_.erase(it);
    stats_.files_deleted++;
    return Status::ok();
}

size_t
BlockEnv::extent_count(const std::string &name) const
{
    auto it = files_.find(name);
    return it == files_.end() ? 0 : it->second.extents.size();
}

bool
BlockEnv::file_exists(const std::string &name) const
{
    return files_.count(name) > 0;
}

Result<uint64_t>
BlockEnv::file_size(const std::string &name) const
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    return it->second.size_bytes;
}

std::vector<std::string>
BlockEnv::list_files() const
{
    std::vector<std::string> out;
    for (const auto &[name, meta] : files_)
        out.push_back(name);
    return out;
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
