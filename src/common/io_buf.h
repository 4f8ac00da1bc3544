/**
 * @file
 * IoBuf: the one payload type from the env to the device store. A
 * refcounted, sliceable byte buffer: copies of an IoBuf share one
 * storage block, and slice() hands out a view of part of it, so a
 * logical write's bytes reach every member sub-I/O, every retry attempt
 * and a torn write's prefix without being copied again.
 *
 * Ownership rules:
 *  - A buffer always owns its bytes; it never borrows caller memory. A
 *    command can outlive the request that issued it (a retrier attempt
 *    superseded by its watchdog, delayed by a fail-slow device, may
 *    reach the device after the logical write completed), and it keeps
 *    the bytes alive by holding a reference.
 *  - Shared bytes are immutable. mutable_data() hands out a writable
 *    pointer only to a sole holder; a shared buffer is first copied.
 *  - The storage is a std::vector, so a buffer adopts a moved-in vector
 *    without copying, and a sole holder moves it back out the same way
 *    (to_vector() &&).
 *  - Refcounts are plain integers: a buffer stays on the thread (the
 *    simulation context) that made it.
 *
 * Copies IoBuf makes itself (copy_of, recycled, a shared to_vector or
 * mutable_data) are counted on the host profiler's copy meter, and
 * fresh storage it allocates for them on the alloc meter.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace raizn {

class IoBuf
{
  public:
    using value_type = uint8_t;
    using iterator = const uint8_t *;
    using const_iterator = const uint8_t *;

    /// Cap on the per-thread free list behind recycled().
    static constexpr size_t kRecycleCap = 2;

    IoBuf() = default;
    /// Adopts `bytes` without copying; an empty vector is an empty
    /// buffer and allocates nothing.
    IoBuf(std::vector<uint8_t> &&bytes); // NOLINT: implicit on purpose

    IoBuf(const IoBuf &o) noexcept : blk_(o.blk_), off_(o.off_), len_(o.len_)
    {
        if (blk_ != nullptr)
            blk_->refs++;
    }
    IoBuf(IoBuf &&o) noexcept
        : blk_(std::exchange(o.blk_, nullptr)),
          off_(std::exchange(o.off_, 0)), len_(std::exchange(o.len_, 0))
    {
    }
    IoBuf &
    operator=(const IoBuf &o) noexcept
    {
        IoBuf tmp(o);
        swap(tmp);
        return *this;
    }
    IoBuf &
    operator=(IoBuf &&o) noexcept
    {
        IoBuf tmp(std::move(o));
        swap(tmp);
        return *this;
    }
    ~IoBuf()
    {
        if (blk_ != nullptr && --blk_->refs == 0)
            drop(blk_);
    }

    /// A fresh buffer holding a copy of `bytes`.
    static IoBuf copy_of(std::span<const uint8_t> bytes);
    /// A fresh buffer holding a copy of `bytes` zero-padded to `len`
    /// bytes (len >= bytes.size()), in storage reused from a per-thread
    /// free list of at most kRecycleCap entries: a large write reuses
    /// the pages of an earlier one instead of faulting in new ones. The
    /// storage goes back on the list when the last reference drops.
    static IoBuf recycled(std::span<const uint8_t> bytes, size_t len);

    size_t size() const { return len_; }
    bool empty() const { return len_ == 0; }
    const uint8_t *data() const
    {
        return blk_ != nullptr ? blk_->bytes.data() + off_ : nullptr;
    }
    const uint8_t *begin() const { return data(); }
    const uint8_t *end() const { return data() + len_; }
    uint8_t operator[](size_t i) const { return data()[i]; }
    std::span<const uint8_t> span() const { return {data(), len_}; }

    /// Bytes [off, off + len) of this buffer, sharing its storage (an
    /// empty buffer's slices are empty). The rvalue form hands this
    /// buffer's reference on to the slice.
    IoBuf
    slice(size_t off, size_t len) const &
    {
        return IoBuf(*this).slice(off, len);
    }
    IoBuf
    slice(size_t off, size_t len) &&
    {
        if (len == 0 || blk_ == nullptr)
            return {};
        assert(off + len <= len_);
        IoBuf out(std::move(*this));
        out.off_ += off;
        out.len_ = len;
        return out;
    }
    /// The first `len` bytes, sharing storage.
    IoBuf prefix(size_t len) const { return slice(0, len); }

    /// True when no other IoBuf shares this one's storage.
    bool unique() const { return blk_ == nullptr || blk_->refs == 1; }
    /// Writable bytes of a sole holder; a shared buffer first takes a
    /// private copy of its view.
    uint8_t *mutable_data();

    /// The bytes as a vector: a sole holder hands over its storage
    /// (trimmed to the view in place), anyone else copies.
    std::vector<uint8_t> to_vector() &&;
    std::vector<uint8_t> to_vector() const &;

    void
    swap(IoBuf &o) noexcept
    {
        std::swap(blk_, o.blk_);
        std::swap(off_, o.off_);
        std::swap(len_, o.len_);
    }

    friend bool
    operator==(const IoBuf &a, const IoBuf &b)
    {
        return equal(a.span(), b.span());
    }
    friend bool
    operator==(const IoBuf &a, const std::vector<uint8_t> &b)
    {
        return equal(a.span(), b);
    }

  private:
    struct Block {
        uint32_t refs = 1;
        bool recycle = false; ///< storage returns to the free list
        std::vector<uint8_t> bytes;
    };

    static void drop(Block *b);
    static bool equal(std::span<const uint8_t> a, std::span<const uint8_t> b);

    Block *blk_ = nullptr;
    size_t off_ = 0;
    size_t len_ = 0;
};

} // namespace raizn
