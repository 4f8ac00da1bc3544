#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_internal.h"

#ifdef RAIZN_HAVE_CRC32C_HW
#include <nmmintrin.h>
#endif

namespace raizn {

namespace detail {

namespace {
constexpr uint32_t kPoly = 0x82f63b78; // CRC32C reflected polynomial

// constexpr so the table is ready before any static initializer that
// checksums (no dependency on static-initialization order).
constexpr std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
        table[i] = crc;
    }
    return table;
}();
} // namespace

uint32_t
crc32c_portable(const void *data, size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t crc = ~seed;
    for (size_t i = 0; i < len; ++i)
        crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xff];
    return ~crc;
}

#ifdef RAIZN_HAVE_CRC32C_HW
__attribute__((target("sse4.2"))) uint32_t
crc32c_hw(const void *data, size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t crc = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t word = 0;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = static_cast<uint32_t>(crc);
    for (; len > 0; ++p, --len)
        crc32 = _mm_crc32_u8(crc32, *p);
    return ~crc32;
}

bool
crc32c_hw_supported()
{
    __builtin_cpu_init(); // may run before the runtime's own init
    return __builtin_cpu_supports("sse4.2");
}
#else
bool
crc32c_hw_supported()
{
    return false;
}
#endif

} // namespace detail

uint32_t
crc32c(const void *data, size_t len, uint32_t seed)
{
#ifdef RAIZN_HAVE_CRC32C_HW
    static const auto impl = detail::crc32c_hw_supported()
        ? detail::crc32c_hw
        : detail::crc32c_portable;
    return impl(data, len, seed);
#else
    return detail::crc32c_portable(data, len, seed);
#endif
}

} // namespace raizn
