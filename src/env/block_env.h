/**
 * @file
 * BlockEnv: simple extent-based file layer over a random-write block
 * volume (mdraid), standing in for a conventional filesystem. Extents
 * are allocated from a first-fit free list; tails can be rewritten in
 * place, so there is no pad waste and no cleaning.
 */
#pragma once

#include <map>
#include <span>

#include "env/env.h"
#include "mdraid/md_volume.h"

namespace raizn {

class BlockEnv : public Env
{
  public:
    BlockEnv(EventLoop *loop, MdVolume *vol);

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

    MdVolume *volume() const { return vol_; }
    /// Extents allocated to `name` (0 for an unknown file).
    size_t extent_count(const std::string &name) const;

  private:
    friend class BlockWritableFile;
    friend class BlockReadableFile;

    struct Extent {
        uint64_t lba;
        uint64_t sectors;
    };
    struct FileMeta {
        std::vector<Extent> extents;
        uint64_t size_bytes = 0;
    };

    /// Allocates `sectors` (first fit, possibly split across extents).
    Result<std::vector<Extent>> allocate(uint64_t sectors);
    void release(const std::vector<Extent> &extents);
    /// Maps a file sector to its volume LBA and contiguous run length.
    void map_sector(const FileMeta &meta, uint64_t file_sector,
                    uint64_t *lba, uint64_t *run) const;
    Result<std::vector<uint8_t>> read_span(const FileMeta &meta,
                                           uint64_t offset,
                                           uint64_t length);
    Status sync_volume();

    EventLoop *loop_;
    MdVolume *vol_;
    std::map<std::string, FileMeta> files_;
    std::map<uint64_t, uint64_t> free_; ///< lba -> sectors, coalesced
    EnvStats stats_;
};

} // namespace raizn
