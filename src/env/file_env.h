/**
 * @file
 * FileEnv: the one file layer under both storage environments. It
 * implements Env over any ZonedArray and owns what a file system keeps
 * whatever its media: the file table (each file a list of extents with
 * the file bytes each holds), the writable handle (buffer, the
 * >= 256 KiB direct path, sync, close), the readable handle (the extent
 * walk), and the blocking volume calls.
 *
 * A subclass names only its placement: where a file's next bytes go
 * (place), what a deleted file's extents give back (release), the free
 * space, and whether a partial tail sector may be rewritten in place
 * (rewrites_tail). ZonedEnv appends at a zone's write pointer and
 * cleans; BlockEnv allocates first-fit extents and rewrites its tails.
 */
#pragma once

#include <functional>
#include <map>
#include <span>

#include "array/zoned_array.h"
#include "env/env.h"

namespace raizn {

class FileEnv : public Env
{
  public:
    FileEnv(EventLoop *loop, ZonedArray *vol) : loop_(loop), vol_(vol) {}

    Result<std::unique_ptr<WritableFile>>
    new_writable(const std::string &name) override;
    Result<std::unique_ptr<ReadableFile>>
    open_readable(const std::string &name) override;
    Status delete_file(const std::string &name) override;
    bool file_exists(const std::string &name) const override;
    Result<uint64_t> file_size(const std::string &name) const override;
    std::vector<std::string> list_files() const override;
    const EnvStats &stats() const override { return stats_; }

    /// Extents holding `name`'s bytes (0 for an unknown file).
    size_t extent_count(const std::string &name) const;

  protected:
    struct Extent {
        uint64_t lba; ///< volume LBA (sector)
        uint64_t sectors;
        /// File bytes it holds: a pad in its last sector, or sectors
        /// allocated but not yet written, hold none.
        uint64_t valid;
    };
    struct FileMeta {
        std::vector<Extent> extents;
        uint64_t size_bytes = 0;
    };

    /// Writes `bytes` as the next part of `meta`'s byte stream, adding
    /// or growing its extents. The file's size grows by `bytes.size()`
    /// once it returns ok.
    virtual Status place(FileMeta &meta, std::span<const uint8_t> bytes) = 0;
    /// Gives back the extents of a file being deleted.
    virtual void release(const FileMeta &meta) = 0;
    /// True when a partial tail sector may be rewritten in place. The
    /// writer then spills it with every spill; otherwise it holds it
    /// buffered until sync or close pads it out.
    virtual bool rewrites_tail() const = 0;

    /// Bytes [offset, offset + length) of `meta`'s stream, within its
    /// size, read extent by extent.
    Result<std::vector<uint8_t>>
    read_extents(const FileMeta &meta, uint64_t offset, uint64_t length);
    /// Runs one volume op and drives the loop until it completes.
    IoResult vol_sync(const std::function<void(IoCallback)> &op);

    EventLoop *loop_;
    ZonedArray *vol_;
    std::map<std::string, FileMeta> files_;
    EnvStats stats_;

  private:
    friend class EnvWritableFile;
    friend class EnvReadableFile;
};

} // namespace raizn
