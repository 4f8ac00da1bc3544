#include "raizn/gen_counter.h"

#include <cassert>
#include <cstring>

namespace raizn {

GenCounterTable::GenCounterTable(uint32_t num_zones)
{
    reset(num_zones);
}

void
GenCounterTable::reset(uint32_t num_zones)
{
    num_zones_ = num_zones;
    counters_.assign(num_zones, 0);
    applied_seq_.assign(num_blocks(), 0);
}

std::vector<uint8_t>
GenCounterTable::encode_block(uint32_t block) const
{
    assert(block < num_blocks());
    std::vector<uint8_t> out(kPerBlock * 8, 0);
    uint32_t first = block * kPerBlock;
    uint32_t count = std::min(kPerBlock, num_zones_ - first);
    std::memcpy(out.data(), counters_.data() + first,
                static_cast<size_t>(count) * 8);
    return out;
}

MdHeader
GenCounterTable::block_header(uint32_t block, uint64_t update_seq) const
{
    MdHeader h;
    h.type = MdType::kGenCounters;
    // start/end carry the zone-index range the block covers.
    h.start_lba = static_cast<uint64_t>(block) * kPerBlock;
    h.end_lba = std::min<uint64_t>(num_zones_,
                                   h.start_lba + kPerBlock);
    h.generation = update_seq;
    return h;
}

void
GenCounterTable::apply_entry(const MdEntry &entry)
{
    assert(entry.header.type == MdType::kGenCounters);
    uint32_t first = static_cast<uint32_t>(entry.header.start_lba);
    if (first % kPerBlock != 0 || first >= num_zones_)
        return; // malformed or for a different geometry
    uint32_t block = first / kPerBlock;
    if (entry.header.generation < applied_seq_[block])
        return; // older than what we already applied
    applied_seq_[block] = entry.header.generation;
    uint32_t count = std::min(kPerBlock, num_zones_ - first);
    size_t need = static_cast<size_t>(count) * 8;
    if (entry.inline_data.size() < need)
        return;
    std::memcpy(counters_.data() + first, entry.inline_data.data(), need);
}

size_t
GenCounterTable::memory_bytes() const
{
    // Counters plus the amortized 32-byte header per 508-counter block,
    // matching Table 1's 8.05 bytes per logical zone.
    return counters_.size() * 8 + num_blocks() * 32;
}

} // namespace raizn
