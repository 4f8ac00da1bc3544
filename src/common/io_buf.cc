#include "common/io_buf.h"

#include <cassert>
#include <cstring>
#include <new>

#include "common/slab.h"
#include "obs/prof/prof.h"

namespace raizn {

namespace {

/// Storage vectors recycled() may reuse, capacity kept.
struct FreeList {
    std::vector<std::vector<uint8_t>> spare;
    FreeList() = default;
    FreeList(const FreeList &) = delete;
    FreeList &operator=(const FreeList &) = delete;
    ~FreeList() { dead = true; }
    /// Set once the thread's list is destroyed: buffers released after
    /// that (thread teardown) free their storage instead.
    static inline thread_local bool dead = false;
};

FreeList &
free_list()
{
    thread_local FreeList fl;
    return fl;
}

} // namespace

IoBuf::IoBuf(std::vector<uint8_t> &&bytes)
{
    if (bytes.empty())
        return;
    PoolAllocator<Block> a;
    blk_ = new (a.allocate(1)) Block;
    blk_->bytes = std::move(bytes);
    len_ = blk_->bytes.size();
}

void
IoBuf::drop(Block *b)
{
    if (b->recycle && b->bytes.capacity() > 0 && !FreeList::dead) {
        FreeList &fl = free_list();
        if (fl.spare.size() < kRecycleCap) {
            b->bytes.clear();
            fl.spare.push_back(std::move(b->bytes));
        }
    }
    b->~Block();
    PoolAllocator<Block>().deallocate(b, 1);
}

bool
IoBuf::equal(std::span<const uint8_t> a, std::span<const uint8_t> b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

IoBuf
IoBuf::copy_of(std::span<const uint8_t> bytes)
{
    if (bytes.empty())
        return {};
    prof::count_alloc(bytes.size());
    prof::count_copy(bytes.size());
    return IoBuf(std::vector<uint8_t>(bytes.begin(), bytes.end()));
}

IoBuf
IoBuf::recycled(std::span<const uint8_t> bytes, size_t len)
{
    assert(len >= bytes.size());
    if (len == 0)
        return {};
    std::vector<uint8_t> v;
    FreeList &fl = free_list();
    if (!fl.spare.empty()) {
        v = std::move(fl.spare.back());
        fl.spare.pop_back();
    }
    if (v.capacity() < len) {
        prof::count_alloc(len);
        v = std::vector<uint8_t>();
        v.reserve(len);
    }
    v.insert(v.end(), bytes.begin(), bytes.end());
    v.resize(len); // zero pad
    if (!bytes.empty())
        prof::count_copy(bytes.size());
    IoBuf out(std::move(v));
    out.blk_->recycle = true;
    return out;
}

uint8_t *
IoBuf::mutable_data()
{
    if (blk_ == nullptr)
        return nullptr;
    if (blk_->refs > 1)
        *this = copy_of(span());
    return blk_->bytes.data() + off_;
}

std::vector<uint8_t>
IoBuf::to_vector() &&
{
    if (blk_ == nullptr)
        return {};
    if (blk_->refs > 1)
        return std::as_const(*this).to_vector();
    std::vector<uint8_t> v = std::move(blk_->bytes);
    if (off_ > 0) {
        prof::count_copy(len_);
        std::memmove(v.data(), v.data() + off_, len_);
    }
    v.resize(len_);
    IoBuf gone(std::move(*this)); // releases the emptied block
    return v;
}

std::vector<uint8_t>
IoBuf::to_vector() const &
{
    if (empty())
        return {};
    prof::count_alloc(len_);
    prof::count_copy(len_);
    return std::vector<uint8_t>(begin(), end());
}

} // namespace raizn
