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
                  [&](size_t idx, size_t in_page, size_t n, bool whole) {
                      Page &p = pages_[idx];
                      if (!p) {
                          // A write that covers the page overwrites
                          // every byte, so only partial ones zero it.
                          p = whole
                              ? std::make_unique_for_overwrite<uint8_t[]>(
                                    kPageBytes)
                              : std::make_unique<uint8_t[]>(kPageBytes);
                          npages_++;
                          prof::count_alloc(kPageBytes);
                      }
                      std::memcpy(p.get() + in_page, src, n);
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
                      if (!p)
                          return;
                      if (whole) {
                          p.reset();
                          npages_--;
                      } else {
                          std::memset(p.get() + in_page, 0, n);
                      }
                  });
}

void
PageStore::clear()
{
    for (Page &p : pages_)
        p.reset();
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
                      const uint8_t *p = pages_[idx].get();
                      if (p == nullptr) {
                          out.insert(out.end(), n, 0);
                          return;
                      }
                      out.insert(out.end(), p + in_page, p + in_page + n);
                      copied += n;
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
    Page &p = pages_[off / kPageBytes];
    return p ? p.get() + off % kPageBytes : nullptr;
}

} // namespace raizn
