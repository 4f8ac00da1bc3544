/**
 * @file
 * Per-sector CRC32C catalog of one logical zone's payload: the read
 * path's silent-corruption check, shared by RaiznVolume and
 * ZonedEngine. The write path records each sector's checksum, every
 * read verifies the bytes it got back, and a mismatch is served from
 * redundancy. The catalog lives in memory only: it starts empty after
 * a mount, and sectors without a recorded checksum verify as ok.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace raizn {

class CrcCatalog
{
  public:
    /// `zone_sectors` sizes the catalog on its first record.
    explicit CrcCatalog(uint64_t zone_sectors = 0)
        : zone_sectors_(zone_sectors)
    {
    }

    /**
     * Records checksums for zone-relative sectors [off, off+n) from
     * `bytes` (n sectors). Null `bytes` invalidates the range instead:
     * a later read of it verifies as ok.
     */
    void record(uint64_t off, const uint8_t *bytes, uint32_t n);

    /// True when no recorded checksum in [off, off+n) disagrees with
    /// `bytes`; null `bytes` (a timing-only read) is ok.
    bool verify(uint64_t off, const uint8_t *bytes, uint32_t n) const;

    /// Sectors of [off, off+n) with a recorded checksum, and how many
    /// of those disagree with `bytes`.
    struct Coverage {
        uint32_t covered = 0;
        uint32_t mismatched = 0;
    };
    Coverage check(uint64_t off, const uint8_t *bytes, uint32_t n) const;

    /// Forgets every checksum (zone reset); the size is kept.
    void clear()
    {
        crcs_.clear();
        valid_.clear();
    }

  private:
    uint64_t zone_sectors_;
    std::vector<uint32_t> crcs_;
    std::vector<bool> valid_;
};

} // namespace raizn
