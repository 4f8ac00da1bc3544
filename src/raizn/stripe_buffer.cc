#include "raizn/stripe_buffer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/kernels.h"
#include "obs/prof/prof.h"

namespace raizn {

void
parity_byte_range(uint64_t s, uint64_t e, uint32_t su_sectors,
                  uint64_t *lo, uint64_t *hi)
{
    assert(s < e);
    uint64_t su_bytes = static_cast<uint64_t>(su_sectors) * kSectorSize;
    uint64_t sb = s * kSectorSize;
    uint64_t eb = e * kSectorSize;
    uint64_t k1 = sb / su_bytes;
    uint64_t k2 = (eb - 1) / su_bytes;
    if (k1 == k2) {
        *lo = sb - k1 * su_bytes;
        *hi = eb - k1 * su_bytes;
    } else {
        *lo = 0;
        *hi = su_bytes;
    }
}

StripeBuffer::StripeBuffer(uint32_t data_units, uint32_t su_sectors,
                           bool shadow)
    : data_units_(data_units), su_sectors_(su_sectors),
      stripe_sectors_(static_cast<uint64_t>(data_units) * su_sectors),
      shadow_(shadow)
{
    if (!shadow_)
        data_.assign(stripe_sectors_ * kSectorSize, 0);
}

void
StripeBuffer::assign(uint64_t stripe_no)
{
    stripe_no_ = stripe_no;
    filled_ = 0;
}

void
StripeBuffer::fill(uint64_t off, const uint8_t *data, uint64_t nsectors)
{
    assert(bound());
    assert(off + nsectors <= stripe_sectors_);
    // Sequential zone writes always extend the prefix contiguously.
    assert(off == filled_);
    if (!shadow_ && data != nullptr) {
        std::memcpy(data_.data() + off * kSectorSize, data,
                    nsectors * kSectorSize);
        prof::count_copy(nsectors * kSectorSize);
    }
    filled_ = off + nsectors;
}

std::vector<uint8_t>
StripeBuffer::full_parity() const
{
    assert(complete());
    if (shadow_)
        return {};
    PROF_SCOPE("raizn.parity.full");
    uint64_t su_bytes = static_cast<uint64_t>(su_sectors_) * kSectorSize;
    prof::count_alloc(su_bytes);
    // The first unit is copied, only the later ones fold.
    std::vector<uint8_t> parity(data_.begin(), data_.begin() + su_bytes);
    for (uint32_t k = 1; k < data_units_; ++k)
        xor_bytes(parity.data(), data_.data() + k * su_bytes, su_bytes);
    return parity;
}

std::vector<uint8_t>
StripeBuffer::parity_delta(uint64_t s, uint64_t e, uint64_t *lo_sector,
                           uint64_t *hi_sector) const
{
    assert(s < e && e <= filled_);
    PROF_SCOPE("raizn.parity.delta");
    uint64_t lo_b, hi_b;
    parity_byte_range(s, e, su_sectors_, &lo_b, &hi_b);
    *lo_sector = lo_b / kSectorSize;
    *hi_sector = div_ceil(hi_b, kSectorSize);
    if (shadow_)
        return {};
    size_t out_bytes = (*hi_sector - *lo_sector) * kSectorSize;
    prof::count_alloc(out_bytes);
    std::vector<uint8_t> delta;
    delta.reserve(out_bytes);
    uint64_t su_bytes = static_cast<uint64_t>(su_sectors_) * kSectorSize;
    uint64_t sb = s * kSectorSize;
    uint64_t eb = e * kSectorSize;
    uint64_t base = *lo_sector * kSectorSize; // parity offset of delta[0]
    // XOR every written byte in [sb, eb) into its parity position. The
    // first unit is copied in, zero-extended on both sides; only the
    // later units fold.
    uint64_t k1 = sb / su_bytes;
    uint64_t k2 = (eb - 1) / su_bytes;
    for (uint64_t k = k1; k <= k2; ++k) {
        uint64_t unit_lo = std::max(sb, k * su_bytes);
        uint64_t unit_hi = std::min(eb, (k + 1) * su_bytes);
        uint64_t parity_off = unit_lo - k * su_bytes;
        assert(parity_off >= base);
        const uint8_t *src = data_.data() + unit_lo;
        if (k == k1) {
            delta.resize(parity_off - base);
            delta.insert(delta.end(), src, src + (unit_hi - unit_lo));
            delta.resize(out_bytes);
        } else {
            xor_bytes(delta.data() + (parity_off - base), src,
                      unit_hi - unit_lo);
        }
    }
    return delta;
}

std::vector<uint8_t>
StripeBuffer::prefix_parity() const
{
    if (shadow_)
        return {};
    PROF_SCOPE("raizn.parity.prefix");
    uint64_t su_bytes = static_cast<uint64_t>(su_sectors_) * kSectorSize;
    prof::count_alloc(su_bytes);
    // The first unit's filled bytes are copied and zero-extended, only
    // the later units fold.
    uint64_t filled_bytes = filled_ * kSectorSize;
    std::vector<uint8_t> parity;
    parity.reserve(su_bytes);
    parity.assign(data_.begin(),
                  data_.begin() + std::min(su_bytes, filled_bytes));
    parity.resize(su_bytes);
    for (uint32_t k = 1; k < data_units_; ++k) {
        uint64_t lo = static_cast<uint64_t>(k) * su_bytes;
        if (lo >= filled_bytes)
            break;
        uint64_t n = std::min(su_bytes, filled_bytes - lo);
        xor_bytes(parity.data(), data_.data() + lo, n);
    }
    return parity;
}

const uint8_t *
StripeBuffer::unit_data(uint32_t k) const
{
    assert(!shadow_ && k < data_units_);
    return data_.data() +
        static_cast<uint64_t>(k) * su_sectors_ * kSectorSize;
}

void
StripeBuffer::restore(uint64_t stripe_no, std::vector<uint8_t> bytes,
                      uint64_t filled_sectors)
{
    stripe_no_ = stripe_no;
    filled_ = filled_sectors;
    if (!shadow_) {
        assert(bytes.size() == data_.size());
        data_ = std::move(bytes);
    }
}

} // namespace raizn
