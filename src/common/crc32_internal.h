/**
 * @file
 * The two CRC32C implementations behind `crc32c()`, exposed so tests can
 * check each one directly whatever the host supports. Not part of the
 * public API: callers use `crc32c()` from common/crc32.h.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn::detail {

/// Byte-at-a-time table loop. Runs on every host; the reference.
uint32_t crc32c_portable(const void *data, size_t len, uint32_t seed);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RAIZN_HAVE_CRC32C_HW 1
/// SSE4.2 `crc32` instruction, 8 bytes per step. Only call it when
/// crc32c_hw_supported() is true.
uint32_t crc32c_hw(const void *data, size_t len, uint32_t seed);
#endif

/// True when `crc32c()` dispatches to the hardware path on this host.
bool crc32c_hw_supported();

} // namespace raizn::detail
