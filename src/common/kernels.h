/**
 * @file
 * The host's two byte kernels: CRC32C (Castagnoli), which checksums
 * superblocks, metadata log entries, WAL records, SSTable blocks and
 * the per-sector read catalog, and the XOR fold behind every parity,
 * partial-parity and reconstruct computation. Each runs the fastest
 * path the CPU supports, chosen once per process; every path returns
 * the same bytes.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn {

/// CRC32C of `data[0, len)`, continuing from `seed` (0 to start).
uint32_t crc32c(const void *data, size_t len, uint32_t seed = 0);

/// XOR `n` bytes of `src` into `dst`.
void xor_bytes(uint8_t *dst, const uint8_t *src, size_t n);

} // namespace raizn
