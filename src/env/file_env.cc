#include "env/file_env.h"

#include <algorithm>

#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

class EnvWritableFile : public WritableFile
{
  public:
    EnvWritableFile(FileEnv *env, std::string name)
        : env_(env), name_(std::move(name))
    {
    }

    ~EnvWritableFile() override { close(); }

    Status
    append(const std::vector<uint8_t> &data) override
    {
        if (closed_)
            return Status(StatusCode::kInvalidArgument, "closed");
        size_ += data.size();
        env_->stats_.bytes_appended += data.size();
        if (buffer_.empty() && data.size() >= kSpillBytes) {
            // Direct path: what a spill would write goes out straight
            // from the caller's bytes and only the rest is buffered --
            // the same device writes as buffering everything and
            // spilling.
            const size_t take = spillable(data.size(), false);
            Status st = write_out({data.data(), take});
            if (!st) {
                buffer_.assign(data.begin(), data.end());
                return st;
            }
            buffer_.assign(data.begin() + static_cast<ptrdiff_t>(take),
                           data.end());
            return Status::ok();
        }
        buffer_.insert(buffer_.end(), data.begin(), data.end());
        // Spill opportunistically in large chunks.
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
        return env_
            ->vol_sync([&](IoCallback cb) { env_->vol_->flush(std::move(cb)); })
            .status;
    }

    Status
    close() override
    {
        if (closed_)
            return Status::ok();
        Status st = spill(true);
        closed_ = true;
        return st;
    }

    uint64_t size() const override { return size_; }

  private:
    static constexpr size_t kSpillBytes = 256 * kKiB;

    /// How many of `n` buffered bytes a spill writes: all of them at
    /// the last spill before sync or close, or when the env rewrites a
    /// partial tail sector in place; else only whole sectors, since a
    /// zoned env could never rewrite the padded sector (the pad is the
    /// space a zoned WAL wastes at each sync).
    size_t
    spillable(size_t n, bool last) const
    {
        return last || env_->rewrites_tail() ? n
                                             : n / kSectorSize * kSectorSize;
    }

    Status
    spill(bool last)
    {
        const size_t take = spillable(buffer_.size(), last);
        if (take == 0)
            return Status::ok();
        Status st = write_out({buffer_.data(), take});
        if (!st)
            return st;
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<ptrdiff_t>(take));
        return Status::ok();
    }

    Status
    write_out(std::span<const uint8_t> bytes)
    {
        FileEnv::FileMeta &meta = env_->files_[name_];
        Status st = env_->place(meta, bytes);
        if (!st)
            return st;
        meta.size_bytes += bytes.size();
        return Status::ok();
    }

    FileEnv *env_;
    std::string name_;
    std::vector<uint8_t> buffer_;
    uint64_t size_ = 0;
    bool closed_ = false;
};

class EnvReadableFile : public ReadableFile
{
  public:
    EnvReadableFile(FileEnv *env, const FileEnv::FileMeta *meta)
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
        return env_->read_extents(*meta_, offset, length);
    }

    uint64_t size() const override { return meta_->size_bytes; }

  private:
    FileEnv *env_;
    const FileEnv::FileMeta *meta_;
};

IoResult
FileEnv::vol_sync(const std::function<void(IoCallback)> &op)
{
    IoResult out;
    bool done = false;
    op([&](IoResult r) {
        out = std::move(r);
        done = true;
    });
    loop_->run_until_pred([&] { return done; });
    return out;
}

Result<std::vector<uint8_t>>
FileEnv::read_extents(const FileMeta &meta, uint64_t offset, uint64_t length)
{
    std::vector<uint8_t> out;
    uint64_t got = 0;
    uint64_t file_off = 0; // file offset of extent i's first byte
    for (size_t i = 0; i < meta.extents.size() && got < length; ++i) {
        const Extent &ext = meta.extents[i];
        if (offset + got >= file_off + ext.valid) {
            file_off += ext.valid;
            continue;
        }
        const uint64_t in_ext = offset + got - file_off;
        const uint64_t take = std::min(length - got, ext.valid - in_ext);
        // Sector-aligned volume read covering [in_ext, in_ext + take).
        const uint64_t first_sector = in_ext / kSectorSize;
        const uint64_t end_sector = div_ceil(in_ext + take, kSectorSize);
        auto r = vol_sync([&](IoCallback cb) {
            vol_->read(ext.lba + first_sector,
                       static_cast<uint32_t>(end_sector - first_sector),
                       std::move(cb));
        });
        if (!r.status.is_ok())
            return r.status;
        const uint64_t skip = in_ext - first_sector * kSectorSize;
        if (take == length && !r.data.empty()) {
            // One extent: hand back the volume's buffer, trimmed in
            // place.
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
        file_off += ext.valid;
    }
    out.resize(length);
    return out;
}

Result<std::unique_ptr<WritableFile>>
FileEnv::new_writable(const std::string &name)
{
    if (files_.count(name))
        delete_file(name);
    files_[name] = FileMeta{};
    stats_.files_created++;
    return std::unique_ptr<WritableFile>(new EnvWritableFile(this, name));
}

Result<std::unique_ptr<ReadableFile>>
FileEnv::open_readable(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    return std::unique_ptr<ReadableFile>(
        new EnvReadableFile(this, &it->second));
}

Status
FileEnv::delete_file(const std::string &name)
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    release(it->second);
    files_.erase(it);
    stats_.files_deleted++;
    return Status::ok();
}

size_t
FileEnv::extent_count(const std::string &name) const
{
    auto it = files_.find(name);
    return it == files_.end() ? 0 : it->second.extents.size();
}

bool
FileEnv::file_exists(const std::string &name) const
{
    return files_.count(name) > 0;
}

Result<uint64_t>
FileEnv::file_size(const std::string &name) const
{
    auto it = files_.find(name);
    if (it == files_.end())
        return Status(StatusCode::kNotFound, name);
    return it->second.size_bytes;
}

std::vector<std::string>
FileEnv::list_files() const
{
    std::vector<std::string> out;
    for (const auto &[name, meta] : files_)
        out.push_back(name);
    return out;
}

} // namespace raizn
