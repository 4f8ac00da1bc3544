#include "mdraid/stripe_cache.h"

#include <algorithm>
#include <cassert>

namespace raizn {

bool
StripeCache::Entry::all_valid() const
{
    return std::all_of(valid.begin(), valid.end(),
                       [](bool v) { return v; });
}

StripeCache::StripeCache(uint64_t stripe_bytes, uint64_t capacity_bytes,
                         bool store)
    : stripe_bytes_(stripe_bytes),
      capacity_stripes_(std::max<uint64_t>(1, capacity_bytes /
                                                  stripe_bytes)),
      store_(store)
{
}

void
StripeCache::touch(uint64_t stripe)
{
    auto it = map_.find(stripe);
    assert(it != map_.end());
    lru_.erase(it->second.second);
    lru_.push_front(stripe);
    it->second.second = lru_.begin();
}

StripeCache::Entry *
StripeCache::get_or_create(uint64_t stripe, uint64_t stripe_sectors)
{
    auto it = map_.find(stripe);
    if (it != map_.end()) {
        touch(stripe);
        return &it->second.first;
    }
    while (map_.size() >= capacity_stripes_) {
        uint64_t victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
    }
    Entry e;
    e.stripe = stripe;
    if (store_)
        e.data.assign(stripe_bytes_, 0);
    e.valid.assign(stripe_sectors, false);
    lru_.push_front(stripe);
    auto [pos, inserted] =
        map_.emplace(stripe, std::make_pair(std::move(e), lru_.begin()));
    assert(inserted);
    return &pos->second.first;
}

} // namespace raizn
