#include "array/md_format.h"

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
        raw_type > static_cast<uint32_t>(MdType::kEngineZone)) {
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

} // namespace raizn
