/**
 * @file
 * Simple dynamic bitmap used for persistence bitmaps (RAIZN §5.3) and the
 * block env's allocation map.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace raizn {

class Bitmap
{
  public:
    Bitmap() = default;
    explicit Bitmap(size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

    size_t size() const { return bits_; }

    void
    resize(size_t bits)
    {
        bits_ = bits;
        words_.assign((bits + 63) / 64, 0);
    }

    bool
    test(size_t i) const
    {
        assert(i < bits_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(size_t i)
    {
        assert(i < bits_);
        words_[i >> 6] |= (1ull << (i & 63));
    }

    void
    clear(size_t i)
    {
        assert(i < bits_);
        words_[i >> 6] &= ~(1ull << (i & 63));
    }

    /// Sets bits [lo, hi), a whole word at a time where it can.
    void
    set_range(size_t lo, size_t hi)
    {
        assert(lo <= hi && hi <= bits_);
        if (lo >= hi)
            return;
        const size_t wlo = lo >> 6, whi = (hi - 1) >> 6;
        const uint64_t first = ~0ull << (lo & 63);
        const uint64_t last = ~0ull >> (63 - ((hi - 1) & 63));
        if (wlo == whi) {
            words_[wlo] |= first & last;
            return;
        }
        words_[wlo] |= first;
        std::fill(words_.begin() + static_cast<ptrdiff_t>(wlo) + 1,
                  words_.begin() + static_cast<ptrdiff_t>(whi), ~0ull);
        words_[whi] |= last;
    }

    void
    clear_all()
    {
        std::fill(words_.begin(), words_.end(), 0);
    }

    /// True iff every bit in [lo, hi) is set.
    bool
    all_set(size_t lo, size_t hi) const
    {
        for (size_t i = lo; i < hi; ++i) {
            if (!test(i))
                return false;
        }
        return true;
    }

    /// Index of first clear bit at or after `from`, or size() if none.
    size_t
    find_first_clear(size_t from = 0) const
    {
        if (from >= bits_)
            return bits_;
        size_t w = from >> 6;
        // Treat the bits below `from` as set.
        uint64_t clear = ~(words_[w] | ~(~0ull << (from & 63)));
        while (clear == 0) {
            if (++w == words_.size())
                return bits_;
            clear = ~words_[w];
        }
        const size_t i = (w << 6) + static_cast<size_t>(__builtin_ctzll(clear));
        return i < bits_ ? i : bits_;
    }

    size_t
    count_set() const
    {
        size_t n = 0;
        for (uint64_t w : words_)
            n += static_cast<size_t>(__builtin_popcountll(w));
        return n;
    }

  private:
    size_t bits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace raizn
