#include "array/crc_catalog.h"

#include "common/kernels.h"
#include "common/units.h"
#include "obs/prof/prof.h"

namespace raizn {

namespace {

uint32_t
sector_crc(const uint8_t *bytes, uint32_t i)
{
    return crc32c(bytes + static_cast<size_t>(i) * kSectorSize,
                  kSectorSize);
}

} // namespace

void
CrcCatalog::record(uint64_t off, const uint8_t *bytes, uint32_t n)
{
    if (valid_.empty()) {
        if (bytes == nullptr)
            return; // nothing recorded yet: already invalid
        crcs_.assign(zone_sectors_, 0);
        valid_.assign(zone_sectors_, false);
    }
    PROF_SCOPE("crc.record");
    for (uint32_t i = 0; i < n; ++i) {
        valid_[off + i] = bytes != nullptr;
        if (bytes != nullptr)
            crcs_[off + i] = sector_crc(bytes, i);
    }
}

CrcCatalog::Coverage
CrcCatalog::check(uint64_t off, const uint8_t *bytes, uint32_t n) const
{
    Coverage c;
    if (bytes == nullptr)
        return c;
    PROF_SCOPE("crc.check");
    for (uint32_t i = 0; i < n && off + i < valid_.size(); ++i) {
        if (!valid_[off + i])
            continue;
        ++c.covered;
        if (sector_crc(bytes, i) != crcs_[off + i])
            ++c.mismatched;
    }
    return c;
}

bool
CrcCatalog::verify(uint64_t off, const uint8_t *bytes, uint32_t n) const
{
    return check(off, bytes, n).mismatched == 0;
}

} // namespace raizn
