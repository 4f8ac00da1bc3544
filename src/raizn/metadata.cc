#include "raizn/metadata.h"

#include <cassert>
#include <cstring>


namespace raizn {

namespace {

template <typename T>
void
put(std::vector<uint8_t> &buf, size_t off, T value)
{
    std::memcpy(buf.data() + off, &value, sizeof(T));
}

template <typename T>
T
get(const uint8_t *p)
{
    T value;
    std::memcpy(&value, p, sizeof(T));
    return value;
}

} // namespace

std::vector<uint8_t>
encode_zone_reset(const ZoneResetRecord &rec)
{
    std::vector<uint8_t> out(4, 0);
    put<uint32_t>(out, 0, rec.logical_zone);
    return out;
}

Result<ZoneResetRecord>
decode_zone_reset(const MdEntry &entry)
{
    if (entry.header.type != MdType::kZoneResetLog ||
        entry.inline_data.size() < 4) {
        return Status(StatusCode::kCorruption, "bad reset record");
    }
    ZoneResetRecord rec;
    rec.logical_zone = get<uint32_t>(entry.inline_data.data());
    return rec;
}

std::vector<uint8_t>
encode_zone_rebuild(const ZoneRebuildRecord &rec)
{
    std::vector<uint8_t> out(24, 0);
    put<uint32_t>(out, 0, rec.logical_zone);
    put<uint32_t>(out, 4, rec.dev);
    put<uint32_t>(out, 8, rec.phase);
    put<uint32_t>(out, 12, rec.swap_idx);
    put<uint64_t>(out, 16, rec.image_sectors);
    return out;
}

Result<ZoneRebuildRecord>
decode_zone_rebuild(const MdEntry &entry)
{
    if (entry.header.type != MdType::kZoneRebuildLog ||
        entry.inline_data.size() < 24) {
        return Status(StatusCode::kCorruption, "bad rebuild record");
    }
    ZoneRebuildRecord rec;
    rec.logical_zone = get<uint32_t>(entry.inline_data.data());
    rec.dev = get<uint32_t>(entry.inline_data.data() + 4);
    rec.phase = get<uint32_t>(entry.inline_data.data() + 8);
    rec.swap_idx = get<uint32_t>(entry.inline_data.data() + 12);
    rec.image_sectors = get<uint64_t>(entry.inline_data.data() + 16);
    return rec;
}

std::vector<uint8_t>
encode_rebuild_checkpoint(const RebuildCheckpointRecord &rec)
{
    uint32_t nzones = static_cast<uint32_t>(rec.rebuilt.size());
    size_t bitmap_bytes = (nzones + 7) / 8;
    assert(20 + bitmap_bytes <= kMdInlineBytes);
    std::vector<uint8_t> out(20 + bitmap_bytes, 0);
    put<uint32_t>(out, 0, rec.dev);
    put<uint32_t>(out, 4, rec.state);
    put<uint32_t>(out, 8, rec.zones_done);
    put<uint32_t>(out, 12, rec.cur_zone);
    put<uint32_t>(out, 16, nzones);
    for (uint32_t z = 0; z < nzones; ++z) {
        if (rec.rebuilt[z])
            out[20 + z / 8] |= static_cast<uint8_t>(1u << (z % 8));
    }
    return out;
}

Result<RebuildCheckpointRecord>
decode_rebuild_checkpoint(const MdEntry &entry)
{
    if (entry.header.type != MdType::kRebuildCheckpoint ||
        entry.inline_data.size() < 20) {
        return Status(StatusCode::kCorruption,
                      "bad rebuild checkpoint record");
    }
    const uint8_t *p = entry.inline_data.data();
    RebuildCheckpointRecord rec;
    rec.dev = get<uint32_t>(p);
    rec.state = get<uint32_t>(p + 4);
    rec.zones_done = get<uint32_t>(p + 8);
    rec.cur_zone = get<uint32_t>(p + 12);
    uint32_t nzones = get<uint32_t>(p + 16);
    if (entry.inline_data.size() < 20 + (nzones + 7) / 8) {
        return Status(StatusCode::kCorruption,
                      "truncated rebuild checkpoint bitmap");
    }
    rec.rebuilt.assign(nzones, false);
    for (uint32_t z = 0; z < nzones; ++z)
        rec.rebuilt[z] = (p[20 + z / 8] >> (z % 8)) & 1u;
    return rec;
}

} // namespace raizn
