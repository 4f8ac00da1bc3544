/**
 * @file
 * Sparse payload store for devices in DataMode::kStore. Bytes live in
 * fixed 64 KiB pages: a page is allocated on the first payload write
 * that touches it, and zero() hands whole pages back, so host memory
 * tracks the bytes a device holds rather than its capacity.
 * Unallocated ranges read as zeros.
 *
 * A page is filled lazily. It keeps a mark: the bytes before it are
 * initialised, the bytes from it on read as zeros without being stored.
 * A write past the mark zeroes only the gap before it, and a zero()
 * reaching the mark lowers it, so a first partial write costs its own
 * bytes, not a 64 KiB memset.
 *
 * Store and load copies are counted on the host profiler's copy meter
 * (one count per call) and page allocations on its alloc meter.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"

namespace raizn {

class PageStore
{
  public:
    static constexpr size_t kPageBytes = 64 * kKiB;

    /// An empty store addressing `bytes` bytes. The page table itself
    /// is sized on the first write, so an untouched store costs nothing.
    explicit PageStore(uint64_t bytes) : bytes_(bytes) {}

    /// Copies `len` bytes from `src` to `off`, allocating the pages it
    /// touches. A null `src` is zero(off, len).
    void write(uint64_t off, const uint8_t *src, size_t len);

    /// Zeroes [off, off + len): frees the pages it covers whole and
    /// clears the covered part of the others. Allocates nothing.
    void zero(uint64_t off, size_t len);

    /// Frees every page.
    void clear();

    /// Appends bytes [off, off + len) to `out`: resident pages are
    /// copied, holes are filled with zeros.
    void read(uint64_t off, size_t len, std::vector<uint8_t> &out) const;

    /// The byte at `off` if its page is resident, else nullptr. The
    /// page is first zero-filled up to the end of the sector holding
    /// `off`, so the pointer is good for the rest of that sector (and
    /// of what was written beyond it) until the page is freed.
    uint8_t *find(uint64_t off);

    /// Host bytes held in pages.
    uint64_t resident_bytes() const { return npages_ * kPageBytes; }

  private:
    struct Page {
        std::unique_ptr<uint8_t[]> bytes;
        size_t mark = 0; ///< bytes [0, mark) are initialised
    };

    uint64_t bytes_;
    std::vector<Page> pages_; ///< empty until the first write
    uint64_t npages_ = 0; ///< resident pages
};

} // namespace raizn
