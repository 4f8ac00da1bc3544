/**
 * @file
 * ZonedEnv: the zoned placement of the file layer, over a RAIZN (or
 * any zoned) volume, in the spirit of ZenFS / zoned F2FS. A file's
 * bytes append at the active zone's write pointer, whole sectors with
 * the last one padded, and split at zone ends; deleting files
 * invalidates extents; zones whose live data drops to zero reset for
 * free, and a simple greedy cleaner relocates the live remainder when
 * space runs out.
 */
#pragma once

#include "env/file_env.h"

namespace raizn {

class ZonedEnv : public FileEnv
{
  public:
    ZonedEnv(EventLoop *loop, ZonedArray *vol);

    uint64_t free_bytes() const override;

  private:
    Status place(FileMeta &meta, std::span<const uint8_t> bytes) override;
    void release(const FileMeta &meta) override;
    bool rewrites_tail() const override { return false; }

    uint32_t zone_of(uint64_t lba) const
    {
        return static_cast<uint32_t>(lba / zone_cap_);
    }
    /// Writes a prefix of `bytes`, sector-padded, at the active zone's
    /// write pointer (a short write at the zone end); used by both the
    /// write path and the cleaner. It builds the one buffer handed to
    /// the volume write, so it makes the env's one payload copy.
    Result<Extent> append_raw(std::span<const uint8_t> bytes);
    Status ensure_write_zone();
    Status clean_one_zone();
    /// Moves every live extent out of zone `vz`.
    Status relocate_zone(uint32_t vz);

    const uint64_t zone_cap_;
    std::vector<uint64_t> live_sectors_; ///< per zone
    int active_zone_ = -1;
    bool cleaning_ = false;
};

} // namespace raizn
