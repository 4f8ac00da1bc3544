/**
 * @file
 * The implementations behind `crc32c()` and `xor_bytes()`, exposed so
 * tests can check each one directly whatever the host supports. Not
 * part of the public API: callers use common/kernels.h.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn::detail {

/// Byte-at-a-time table loop. Runs on every host; the reference.
uint32_t crc32c_portable(const void *data, size_t len, uint32_t seed);

/// 8-byte word loop with a byte tail. Runs on every host.
void xor_bytes_portable(uint8_t *dst, const uint8_t *src, size_t n);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RAIZN_HAVE_X86_KERNELS 1
/**
 * SSE4.2 `crc32` instruction. Each step runs three independent
 * instruction chains over three consecutive kCrcLane-byte lanes,
 * merged with a zero-shift table. Inputs under three lanes and the
 * tail take one chain, 8 bytes per step. Only call it when
 * crc32c_hw_supported().
 */
uint32_t crc32c_hw(const void *data, size_t len, uint32_t seed);

/// AVX2 32-byte lanes, four per step. Only call it when
/// xor_avx2_supported().
void xor_bytes_avx2(uint8_t *dst, const uint8_t *src, size_t n);
#endif

/// Lane bytes of crc32c_hw's three-lane step: one step takes all but
/// the last 16 bytes of a 4 KiB sector, the catalog's input.
constexpr size_t kCrcLane = 1360;

/// True when `crc32c()` dispatches to crc32c_hw on this host.
bool crc32c_hw_supported();

/// True when `xor_bytes()` dispatches to xor_bytes_avx2 on this host.
bool xor_avx2_supported();

} // namespace raizn::detail
