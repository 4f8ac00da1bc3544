#include "raizn/superblock.h"

#include <cstring>

#include "common/kernels.h"

namespace raizn {

namespace {
constexpr size_t kEncodedSize = 8 + 4 * 6 + 8 + 4;
} // namespace

std::vector<uint8_t>
Superblock::encode() const
{
    std::vector<uint8_t> out(kEncodedSize, 0);
    size_t off = 0;
    auto put = [&](const void *p, size_t n) {
        std::memcpy(out.data() + off, p, n);
        off += n;
    };
    put(&array_uuid, 8);
    put(&num_devices, 4);
    put(&dev_id, 4);
    put(&su_sectors, 4);
    put(&md_zones_per_device, 4);
    put(&stripe_buffers_per_zone, 4);
    put(&relocation_threshold, 4);
    put(&seq, 8);
    uint32_t c = crc32c(out.data(), off);
    put(&c, 4);
    return out;
}

Result<Superblock>
Superblock::decode(const std::vector<uint8_t> &inl)
{
    if (inl.size() < kEncodedSize)
        return Status(StatusCode::kCorruption, "superblock too short");
    Superblock sb;
    size_t off = 0;
    auto take = [&](void *p, size_t n) {
        std::memcpy(p, inl.data() + off, n);
        off += n;
    };
    take(&sb.array_uuid, 8);
    take(&sb.num_devices, 4);
    take(&sb.dev_id, 4);
    take(&sb.su_sectors, 4);
    take(&sb.md_zones_per_device, 4);
    take(&sb.stripe_buffers_per_zone, 4);
    take(&sb.relocation_threshold, 4);
    take(&sb.seq, 8);
    take(&sb.crc, 4);
    if (crc32c(inl.data(), kEncodedSize - 4) != sb.crc)
        return Status(StatusCode::kCorruption, "superblock CRC mismatch");
    return sb;
}

void
Superblock::from_config(const RaiznConfig &cfg)
{
    num_devices = cfg.num_devices;
    su_sectors = cfg.su_sectors;
    md_zones_per_device = cfg.md_zones_per_device;
    stripe_buffers_per_zone = cfg.stripe_buffers_per_zone;
    relocation_threshold = cfg.relocation_threshold;
}

RaiznConfig
Superblock::to_config() const
{
    RaiznConfig cfg;
    cfg.num_devices = num_devices;
    cfg.su_sectors = su_sectors;
    cfg.md_zones_per_device = md_zones_per_device;
    cfg.stripe_buffers_per_zone = stripe_buffers_per_zone;
    cfg.relocation_threshold = relocation_threshold;
    return cfg;
}

bool
Superblock::same_array(const Superblock &other) const
{
    return array_uuid == other.array_uuid &&
        num_devices == other.num_devices &&
        su_sectors == other.su_sectors;
}

} // namespace raizn
