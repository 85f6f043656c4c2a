// CRC32C (Castagnoli) — the wbsn-wire frame trailer checksum.
//
// Chosen over CRC32 (IEEE) for its better error-detection properties on
// short frames and because x86 computes it in hardware.  Dispatch:
// crc32c_update checks once, on its first call, whether the CPU has
// SSE4.2, and if so runs the `crc32` instruction 8 bytes per step.
// Otherwise, and on every non-x86-64 target, it runs the portable
// slice-by-4 table form (detail::crc32c_update_table).  Both compute the
// same function, so every checksum is identical whichever path ran —
// net.Crc32c.HardwareMatchesTable pins that.
//
// Parameters (the "CRC-32C" of RFC 3720 / iSCSI): reflected polynomial
// 0x82F63B78, initial value 0xFFFFFFFF, output XOR 0xFFFFFFFF.  Test
// vector: crc32c("123456789") == 0xE3069283.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wbsn::net {

/// CRC32C of `size` bytes starting at `data`.
std::uint32_t crc32c(const void* data, std::size_t size);

/// Streaming form: feed `crc32c_update` the previous return value to
/// extend a checksum across discontiguous spans (the frame writer checksums
/// header and payload without first gathering them).  Start from
/// `kCrc32cInit` and finish with `crc32c_finish`.
inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;
std::uint32_t crc32c_update(std::uint32_t state, const void* data, std::size_t size);
inline std::uint32_t crc32c_finish(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

namespace detail {

/// The slice-by-4 table path: the fallback crc32c_update dispatches to
/// without SSE4.2, and the reference the hardware path is tested against.
std::uint32_t crc32c_update_table(std::uint32_t state, const void* data, std::size_t size);

/// True when crc32c_update runs on the SSE4.2 `crc32` instruction.
bool crc32c_hardware();

}  // namespace detail
}  // namespace wbsn::net
