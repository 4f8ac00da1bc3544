/**
 * @file
 * ZonedEnv: append-only file system over a RAIZN (or any zoned)
 * volume, in the spirit of ZenFS / zoned F2FS. Files are sequences of
 * extents inside zones; file data appends into the currently open
 * write zone; deleting files invalidates extents; zones whose live
 * data drops to zero reset for free, and a simple greedy cleaner
 * relocates the live remainder when space runs out.
 */
#pragma once

#include <map>
#include <span>
#include <unordered_map>

#include "env/env.h"
#include "raizn/volume.h"

namespace raizn {

class ZonedEnv : public Env
{
  public:
    ZonedEnv(EventLoop *loop, RaiznVolume *vol);

    Result<std::unique_ptr<WritableFile>>
    new_writable(const std::string &name) override;
    Result<std::unique_ptr<ReadableFile>>
    open_readable(const std::string &name) override;
    Status delete_file(const std::string &name) override;
    bool file_exists(const std::string &name) const override;
    Result<uint64_t> file_size(const std::string &name) const override;
    std::vector<std::string> list_files() const override;
    uint64_t free_bytes() const override;
    const EnvStats &stats() const override { return stats_; }

    RaiznVolume *volume() const { return vol_; }
    /// Extents holding `name`'s bytes (0 for an unknown file).
    size_t extent_count(const std::string &name) const;

  private:
    friend class ZonedWritableFile;
    friend class ZonedReadableFile;

    struct Extent {
        uint64_t lba; ///< volume LBA (sector)
        uint64_t sectors;
    };
    struct FileMeta {
        std::vector<Extent> extents;
        /// Valid byte count per extent (pad lives in the last sector
        /// of a spill's extent and is skipped on reads).
        std::vector<uint64_t> extent_valid;
        uint64_t size_bytes = 0;
        bool open_for_write = false;
    };
    struct ZoneMeta {
        uint64_t live_sectors = 0;
        bool open = false;
    };

    uint64_t extent_bytes(const FileMeta &meta, size_t idx) const;
    /// Appends `bytes` for `file` as whole sectors, zero-padding the
    /// last one, splitting across zones.
    Result<Extent> append_sectors(const std::string &file,
                                  std::span<const uint8_t> bytes);
    /// Writes a prefix of `bytes`, sector-padded, at the active zone's
    /// write pointer (a short write at the zone end); used by both the
    /// write path and the cleaner. It builds the one buffer handed to
    /// RaiznVolume::write, so it makes the env's one payload copy.
    Result<Extent> append_raw(std::span<const uint8_t> bytes);
    Status ensure_write_zone(uint64_t needed_sectors);
    Status clean_one_zone();
    void account_delete(const FileMeta &meta);
    Status sync_volume();

    EventLoop *loop_;
    RaiznVolume *vol_;
    std::map<std::string, FileMeta> files_;
    std::vector<ZoneMeta> zones_;
    int active_zone_ = -1;
    bool cleaning_ = false;
    EnvStats stats_;
};

} // namespace raizn
