/**
 * @file
 * BlockEnv: the block placement of the file layer, over a
 * random-write block volume (mdraid), standing in for a conventional
 * filesystem. Extents are allocated from a first-fit free list; tails
 * can be rewritten in place, so there is no pad waste and no cleaning.
 */
#pragma once

#include "env/file_env.h"

namespace raizn {

class BlockEnv : public FileEnv
{
  public:
    BlockEnv(EventLoop *loop, ZonedArray *vol);

    uint64_t free_bytes() const override;

  private:
    Status place(FileMeta &meta, std::span<const uint8_t> bytes) override;
    void release(const FileMeta &meta) override;
    bool rewrites_tail() const override { return true; }

    /// Allocates `sectors` (first fit, possibly split across extents).
    Result<std::vector<Extent>> allocate(uint64_t sectors);
    /// Returns `e` to the free list, coalescing with its neighbours.
    void free_extent(const Extent &e);
    /// Maps a file sector to its volume LBA and contiguous run length.
    void map_sector(const FileMeta &meta, uint64_t file_sector,
                    uint64_t *lba, uint64_t *run) const;

    std::map<uint64_t, uint64_t> free_; ///< lba -> sectors, coalesced
};

} // namespace raizn
