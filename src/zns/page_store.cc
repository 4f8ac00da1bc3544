#include "zns/page_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/prof/prof.h"

namespace raizn {

namespace {

/// Walks [off, off + len) page by page: fn(page index, offset in page,
/// chunk length, whether the chunk is the page's whole addressable span).
template <typename Fn>
void
for_each_page(uint64_t bytes, uint64_t off, size_t len, Fn &&fn)
{
    assert(off + len <= bytes);
    while (len > 0) {
        uint64_t idx = off / PageStore::kPageBytes;
        uint64_t start = idx * PageStore::kPageBytes;
        size_t in_page = static_cast<size_t>(off - start);
        size_t span = static_cast<size_t>(
            std::min<uint64_t>(PageStore::kPageBytes, bytes - start));
        size_t n = std::min(len, span - in_page);
        fn(static_cast<size_t>(idx), in_page, n, n == span);
        off += n;
        len -= n;
    }
}

} // namespace

void
PageStore::write(uint64_t off, const uint8_t *src, size_t len)
{
    if (src == nullptr) {
        zero(off, len);
        return;
    }
    if (pages_.empty())
        pages_.resize((bytes_ + kPageBytes - 1) / kPageBytes);
    prof::count_copy(len);
    for_each_page(bytes_, off, len,
                  [&](size_t idx, size_t in_page, size_t n, bool) {
                      Page &p = pages_[idx];
                      if (!p.bytes) {
                          p.bytes = std::make_unique_for_overwrite<
                              uint8_t[]>(kPageBytes);
                          p.mark = 0;
                          npages_++;
                          prof::count_alloc(kPageBytes);
                      }
                      if (in_page > p.mark)
                          std::memset(p.bytes.get() + p.mark, 0,
                                      in_page - p.mark);
                      std::memcpy(p.bytes.get() + in_page, src, n);
                      p.mark = std::max(p.mark, in_page + n);
                      src += n;
                  });
}

void
PageStore::zero(uint64_t off, size_t len)
{
    if (npages_ == 0)
        return;
    for_each_page(bytes_, off, len,
                  [&](size_t idx, size_t in_page, size_t n, bool whole) {
                      Page &p = pages_[idx];
                      if (!p.bytes)
                          return;
                      if (whole) {
                          p.bytes.reset();
                          p.mark = 0;
                          npages_--;
                      } else if (in_page >= p.mark) {
                          // Already reads as zeros.
                      } else if (in_page + n >= p.mark) {
                          p.mark = in_page;
                      } else {
                          std::memset(p.bytes.get() + in_page, 0, n);
                      }
                  });
}

void
PageStore::clear()
{
    for (Page &p : pages_) {
        p.bytes.reset();
        p.mark = 0;
    }
    npages_ = 0;
}

void
PageStore::read(uint64_t off, size_t len, std::vector<uint8_t> &out) const
{
    if (npages_ == 0) {
        assert(off + len <= bytes_);
        out.insert(out.end(), len, 0);
        return;
    }
    size_t copied = 0;
    for_each_page(bytes_, off, len,
                  [&](size_t idx, size_t in_page, size_t n, bool) {
                      const Page &p = pages_[idx];
                      const size_t have = p.bytes && in_page < p.mark
                          ? std::min(n, p.mark - in_page)
                          : 0;
                      if (have > 0) {
                          const uint8_t *src = p.bytes.get() + in_page;
                          out.insert(out.end(), src, src + have);
                          copied += have;
                      }
                      out.insert(out.end(), n - have, 0);
                  });
    if (copied > 0)
        prof::count_copy(copied);
}

uint8_t *
PageStore::find(uint64_t off)
{
    assert(off < bytes_);
    if (npages_ == 0)
        return nullptr;
    const size_t idx = static_cast<size_t>(off / kPageBytes);
    Page &p = pages_[idx];
    if (!p.bytes)
        return nullptr;
    const size_t in_page = static_cast<size_t>(off % kPageBytes);
    const size_t span = static_cast<size_t>(std::min<uint64_t>(
        kPageBytes, bytes_ - uint64_t{idx} * kPageBytes));
    const size_t need =
        std::min(span, (in_page / kSectorSize + 1) * size_t{kSectorSize});
    if (need > p.mark) {
        std::memset(p.bytes.get() + p.mark, 0, need - p.mark);
        p.mark = need;
    }
    return p.bytes.get() + in_page;
}

} // namespace raizn
