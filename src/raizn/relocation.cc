#include "raizn/relocation.h"

#include <cassert>
#include <iterator>

namespace raizn {

void
RelocationMap::insert(Relocation rel)
{
    assert(rel.nsectors > 0);
    map_[rel.lba] = std::move(rel);
}

void
RelocationMap::drop_zone(uint64_t zone_start, uint64_t zone_end)
{
    auto it = map_.lower_bound(zone_start);
    while (it != map_.end() && it->first < zone_end)
        it = map_.erase(it);
}

const Relocation *
RelocationMap::find(uint64_t lba) const
{
    auto it = map_.upper_bound(lba);
    if (it == map_.begin())
        return nullptr;
    --it;
    const Relocation &rel = it->second;
    if (lba >= rel.lba && lba < rel.lba + rel.nsectors)
        return &rel;
    return nullptr;
}

const Relocation *
RelocationMap::first_overlap(uint64_t lo, uint64_t hi) const
{
    auto it = map_.upper_bound(lo);
    if (it != map_.begin()) {
        const Relocation &prev = std::prev(it)->second;
        if (prev.lba + prev.nsectors > lo)
            return &prev;
    }
    if (it != map_.end() && it->first < hi)
        return &it->second;
    return nullptr;
}

size_t
RelocationMap::count_for_dev(uint32_t dev) const
{
    size_t n = 0;
    for (const auto &[lba, rel] : map_)
        n += (rel.dev == dev);
    return n;
}

std::vector<const Relocation *>
RelocationMap::all() const
{
    std::vector<const Relocation *> out;
    out.reserve(map_.size());
    for (const auto &[lba, rel] : map_)
        out.push_back(&rel);
    return out;
}

} // namespace raizn
