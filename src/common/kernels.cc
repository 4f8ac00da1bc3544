#include "common/kernels.h"

#include <array>
#include <cstring>

#include "common/kernels_internal.h"

#ifdef RAIZN_HAVE_X86_KERNELS
#include <immintrin.h>
#endif

namespace raizn {

namespace detail {

namespace {
constexpr uint32_t kPoly = 0x82f63b78; // CRC32C reflected polynomial

// constexpr so the tables are ready before any static initializer that
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

using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

/**
 * Zero-shift operator for one lane: entry [k][v] is the raw CRC
 * register (no pre/post inversion) that `v << 8k` becomes after `lane`
 * zero bytes. The register update is linear, so a whole register
 * shifts by XOR-ing its four bytes' entries, and
 * crc(A || B) == shift(crc(A)) ^ crc_from_zero(B) for a lane-sized B.
 */
constexpr ShiftTable
make_shift_table(size_t lane)
{
    std::array<uint32_t, 32> bit{}; // shifted image of each register bit
    for (int i = 0; i < 32; ++i) {
        uint32_t reg = 1u << i;
        for (size_t n = 0; n < lane; ++n)
            reg = (reg >> 8) ^ kTable[reg & 0xff];
        bit[i] = reg;
    }
    ShiftTable t{};
    for (int k = 0; k < 4; ++k) {
        for (uint32_t v = 0; v < 256; ++v) {
            uint32_t reg = 0;
            for (int j = 0; j < 8; ++j)
                if (v & (1u << j))
                    reg ^= bit[8 * k + j];
            t[k][v] = reg;
        }
    }
    return t;
}

constexpr ShiftTable kLaneShift = make_shift_table(kCrcLane);

inline uint32_t
shift_lane(uint32_t reg)
{
    return kLaneShift[0][reg & 0xff] ^ kLaneShift[1][(reg >> 8) & 0xff] ^
        kLaneShift[2][(reg >> 16) & 0xff] ^ kLaneShift[3][reg >> 24];
}

inline uint64_t
load64(const uint8_t *p)
{
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
}
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

void
xor_bytes_portable(uint8_t *dst, const uint8_t *src, size_t n)
{
    // memcpy loads and stores keep unaligned sub-ranges free of
    // alignment and aliasing UB, and compile to plain moves.
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t d = load64(dst + i) ^ load64(src + i);
        std::memcpy(dst + i, &d, 8);
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

#ifdef RAIZN_HAVE_X86_KERNELS
namespace {
/// One `crc32` chain over `p[0, len)` from the raw register `crc`:
/// 8 bytes per step, then a byte tail.
__attribute__((target("sse4.2"))) inline uint32_t
crc_chain(const uint8_t *p, size_t len, uint32_t crc)
{
    uint64_t crc64 = crc;
    for (; len >= 8; p += 8, len -= 8)
        crc64 = _mm_crc32_u64(crc64, load64(p));
    crc = static_cast<uint32_t>(crc64);
    for (; len > 0; ++p, --len)
        crc = _mm_crc32_u8(crc, *p);
    return crc;
}

/**
 * crc_chain for inputs of at least three lanes. One chain is
 * latency-bound (3 cycles per 8 bytes) while the unit accepts one per
 * cycle, so each step runs three chains over three consecutive lanes,
 * each started from zero, and merges them with the lane's zero-shift
 * table. The running register only passes through the shifts, so the
 * next step's chains do not wait for the merge. What the steps leave
 * takes one chain. Out of line so short inputs do not save the
 * registers the three chains need.
 */
__attribute__((target("sse4.2"), noinline)) uint32_t
crc_lanes(const uint8_t *p, size_t len, uint32_t crc)
{
    for (; len >= 3 * kCrcLane; p += 3 * kCrcLane, len -= 3 * kCrcLane) {
        uint64_t a = 0, b = 0, c = 0;
        for (size_t i = 0; i < kCrcLane; i += 8) {
            a = _mm_crc32_u64(a, load64(p + i));
            b = _mm_crc32_u64(b, load64(p + kCrcLane + i));
            c = _mm_crc32_u64(c, load64(p + 2 * kCrcLane + i));
        }
        crc = shift_lane(crc) ^ static_cast<uint32_t>(a);
        crc = shift_lane(crc) ^ static_cast<uint32_t>(b);
        crc = shift_lane(crc) ^ static_cast<uint32_t>(c);
    }
    return crc_chain(p, len, crc);
}
} // namespace

__attribute__((target("sse4.2"))) uint32_t
crc32c_hw(const void *data, size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    if (len >= 3 * kCrcLane) [[unlikely]] // off the short inputs' path
        return ~crc_lanes(p, len, ~seed);
    return ~crc_chain(p, len, ~seed);
}

namespace {
__attribute__((target("avx2"))) inline void
xor32(uint8_t *dst, const uint8_t *src)
{
    auto *d = reinterpret_cast<__m256i *>(dst);
    auto *s = reinterpret_cast<const __m256i *>(src);
    _mm256_storeu_si256(
        d, _mm256_xor_si256(_mm256_loadu_si256(d), _mm256_loadu_si256(s)));
}
} // namespace

__attribute__((target("avx2"))) void
xor_bytes_avx2(uint8_t *dst, const uint8_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        xor32(dst + i, src + i);
        xor32(dst + i + 32, src + i + 32);
        xor32(dst + i + 64, src + i + 64);
        xor32(dst + i + 96, src + i + 96);
    }
    for (; i + 32 <= n; i += 32)
        xor32(dst + i, src + i);
    xor_bytes_portable(dst + i, src + i, n - i);
}

bool
crc32c_hw_supported()
{
    __builtin_cpu_init(); // may run before the runtime's own init
    return __builtin_cpu_supports("sse4.2");
}

bool
xor_avx2_supported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}
#else
bool
crc32c_hw_supported()
{
    return false;
}

bool
xor_avx2_supported()
{
    return false;
}
#endif

} // namespace detail

uint32_t
crc32c(const void *data, size_t len, uint32_t seed)
{
#ifdef RAIZN_HAVE_X86_KERNELS
    static const auto impl = detail::crc32c_hw_supported()
        ? detail::crc32c_hw
        : detail::crc32c_portable;
    return impl(data, len, seed);
#else
    return detail::crc32c_portable(data, len, seed);
#endif
}

void
xor_bytes(uint8_t *dst, const uint8_t *src, size_t n)
{
#ifdef RAIZN_HAVE_X86_KERNELS
    static const auto impl = detail::xor_avx2_supported()
        ? detail::xor_bytes_avx2
        : detail::xor_bytes_portable;
    impl(dst, src, n);
#else
    detail::xor_bytes_portable(dst, src, n);
#endif
}

} // namespace raizn
