// CRC32C (Castagnoli) — the wbsn-wire frame trailer checksum.
//
// Chosen over CRC32 (IEEE) for its better error-detection properties on
// short frames and because hardware assistance exists on both x86 (SSE4.2)
// and ARM (ACLE) if a future backend wants it; this implementation is the
// portable slice-by-4 table form, deterministic everywhere, no ISA
// dependency — matching the repo's bit-identical-by-construction rule.
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

}  // namespace wbsn::net
