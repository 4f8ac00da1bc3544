/**
 * @file
 * Pooled storage for the per-command state of the simulator's hot path
 * (event callbacks, device completions, retrier ops, gather joins), so
 * a member command costs no heap allocation once the pools are warm.
 *
 *  - Slab<T>: slots addressed by a 32-bit index, recycled through a
 *    free list, each with a generation that release() bumps. A closure
 *    that captures (slot, generation) instead of a pointer stays 16 B
 *    with `this`, which fits std::function's inline buffer, and can
 *    tell that its slot was released (and maybe reused) behind it.
 *  - PoolAllocator<T>: a per-thread free list of single-object blocks,
 *    for state shared through std::allocate_shared.
 *
 * Both are lazy: nothing is allocated before the first acquire.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace raizn {

template <typename T>
class Slab
{
  public:
    /// Index of a free slot holding a default-constructed T.
    uint32_t
    acquire()
    {
        if (!free_.empty()) {
            uint32_t i = free_.back();
            free_.pop_back();
            return i;
        }
        slots_.emplace_back();
        return static_cast<uint32_t>(slots_.size() - 1);
    }

    /**
     * Returns slot `i` to the free list: resets its T and bumps its
     * generation. References into the slab do not survive an acquire()
     * (the slots may move), so move out whatever must outlive a call
     * that can acquire before making it.
     */
    void
    release(uint32_t i)
    {
        slots_[i].value = T{};
        slots_[i].gen++;
        free_.push_back(i);
    }

    /// Releases every slot, e.g. when a power cut voids all pending
    /// completions; their captured generations no longer match.
    void
    release_all()
    {
        free_.clear();
        for (uint32_t i = static_cast<uint32_t>(slots_.size()); i-- > 0;) {
            slots_[i].value = T{};
            slots_[i].gen++;
            free_.push_back(i);
        }
    }

    T &operator[](uint32_t i) { return slots_[i].value; }
    /// Slots ever acquired (live or free).
    size_t size() const { return slots_.size(); }

    uint32_t gen(uint32_t i) const { return slots_[i].gen; }
    /// Bumps slot `i`'s generation without releasing it (a retried
    /// command voids its previous attempt's completion).
    uint32_t bump(uint32_t i) { return ++slots_[i].gen; }

  private:
    struct Slot {
        T value{};
        uint32_t gen = 0;
    };
    std::vector<Slot> slots_;
    std::vector<uint32_t> free_;
};

/**
 * Allocator whose single-object allocations are recycled through a
 * per-thread free list of blocks sized for T; other sizes go to
 * operator new. Blocks stay in the free list for the thread's life.
 */
template <typename T>
struct PoolAllocator {
    using value_type = T;

    PoolAllocator() = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        std::vector<void *> &fl = free_list();
        if (n == 1 && !fl.empty()) {
            void *p = fl.back();
            fl.pop_back();
            return static_cast<T *>(p);
        }
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        if (n == 1) {
            free_list().push_back(p);
            return;
        }
        ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const PoolAllocator<U> &) const noexcept
    {
        return true;
    }

  private:
    static std::vector<void *> &
    free_list()
    {
        thread_local FreeList fl;
        return fl.blocks;
    }

    struct FreeList {
        std::vector<void *> blocks;
        FreeList() = default;
        FreeList(const FreeList &) = delete;
        FreeList &operator=(const FreeList &) = delete;
        ~FreeList()
        {
            for (void *p : blocks)
                ::operator delete(p);
        }
    };
};

} // namespace raizn
