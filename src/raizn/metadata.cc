#include "raizn/metadata.h"

#include <cassert>
#include <cstring>

#include "common/logging.h"
#include "obs/prof/prof.h"

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
encode_md_entry(const MdHeader &header, const std::vector<uint8_t> &inl,
                const std::vector<uint8_t> &payload)
{
    assert(inl.size() <= kMdInlineBytes);
    assert(payload.size() % kSectorSize == 0);
    assert(payload.empty() || md_type_has_payload(header.type));

    prof::count_alloc(kSectorSize + payload.size());
    std::vector<uint8_t> out(kSectorSize + payload.size(), 0);
    put<uint32_t>(out, 0, kMdMagic);
    uint32_t type = static_cast<uint32_t>(header.type);
    if (header.checkpoint)
        type |= kMdCheckpointFlag;
    put<uint32_t>(out, 4, type);
    put<uint64_t>(out, 8, header.start_lba);
    put<uint64_t>(out, 16, header.end_lba);
    put<uint64_t>(out, 24, header.generation);
    if (!inl.empty())
        std::memcpy(out.data() + 32, inl.data(), inl.size());
    if (md_type_has_payload(header.type)) {
        put<uint32_t>(out, 32,
                      static_cast<uint32_t>(payload.size() / kSectorSize));
    }
    if (!payload.empty()) {
        std::memcpy(out.data() + kSectorSize, payload.data(),
                    payload.size());
        prof::count_copy(payload.size());
    }
    return out;
}

Result<MdEntry>
decode_md_entry(std::span<const uint8_t> zone_bytes, uint64_t off)
{
    if (off + kSectorSize > zone_bytes.size())
        return Status(StatusCode::kNotFound, "end of log");
    const uint8_t *p = zone_bytes.data() + off;
    if (get<uint32_t>(p) != kMdMagic)
        return Status(StatusCode::kNotFound, "no magic");

    MdEntry entry;
    uint32_t raw_type = get<uint32_t>(p + 4);
    entry.header.checkpoint = (raw_type & kMdCheckpointFlag) != 0;
    raw_type &= ~kMdCheckpointFlag;
    if (raw_type < 1 ||
        raw_type > static_cast<uint32_t>(MdType::kRebuildCheckpoint)) {
        return Status(StatusCode::kCorruption, "bad metadata type");
    }
    entry.header.type = static_cast<MdType>(raw_type);
    entry.header.start_lba = get<uint64_t>(p + 8);
    entry.header.end_lba = get<uint64_t>(p + 16);
    entry.header.generation = get<uint64_t>(p + 24);
    entry.inline_data.assign(p + 32, p + kSectorSize);

    uint32_t payload_sectors = 0;
    if (md_type_has_payload(entry.header.type))
        payload_sectors = get<uint32_t>(p + 32);
    entry.total_sectors = 1 + payload_sectors;
    uint64_t need = off + static_cast<uint64_t>(entry.total_sectors) *
        kSectorSize;
    if (need > zone_bytes.size()) {
        // Header persisted but the payload was torn off by power loss:
        // the entry is unusable.
        return Status(StatusCode::kCorruption, "torn payload");
    }
    if (payload_sectors > 0) {
        entry.payload.assign(p + kSectorSize,
                             p + kSectorSize +
                                 static_cast<size_t>(payload_sectors) *
                                     kSectorSize);
    }
    return entry;
}

std::vector<MdEntry>
scan_md_zone(std::span<const uint8_t> zone_bytes, uint64_t base_pba)
{
    std::vector<MdEntry> out;
    uint64_t off = 0;
    while (off + kSectorSize <= zone_bytes.size()) {
        auto res = decode_md_entry(zone_bytes, off);
        if (!res.is_ok()) {
            if (res.status().code() == StatusCode::kCorruption) {
                LOG_WARN("discarding torn metadata entry at +%llu",
                         (unsigned long long)off);
            }
            break;
        }
        MdEntry entry = std::move(res).value();
        entry.pba = base_pba + off / kSectorSize;
        off += static_cast<uint64_t>(entry.total_sectors) * kSectorSize;
        out.push_back(std::move(entry));
    }
    return out;
}

// ---- Inline record layouts ------------------------------------------

std::vector<uint8_t>
encode_zone_role(const ZoneRoleRecord &rec)
{
    std::vector<uint8_t> out(12, 0);
    put<uint32_t>(out, 0, static_cast<uint32_t>(rec.role));
    put<uint64_t>(out, 4, rec.epoch);
    return out;
}

Result<ZoneRoleRecord>
decode_zone_role(const MdEntry &entry)
{
    if (entry.header.type != MdType::kZoneRole ||
        entry.inline_data.size() < 12) {
        return Status(StatusCode::kCorruption, "bad zone role record");
    }
    ZoneRoleRecord rec;
    rec.role = static_cast<MdZoneRole>(
        get<uint32_t>(entry.inline_data.data()));
    rec.epoch = get<uint64_t>(entry.inline_data.data() + 4);
    return rec;
}

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
