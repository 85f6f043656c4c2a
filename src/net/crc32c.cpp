#include "net/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define WBSN_CRC32C_HAVE_SSE42 1
#endif

namespace wbsn::net {
namespace {

// Slice-by-4 tables for the reflected Castagnoli polynomial, built once at
// static-init time (256 * 4 u32 = 4 KiB; cheap and allocation-free).
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Crc32cTables& tables() {
  static const Crc32cTables t;
  return t;
}

#ifdef WBSN_CRC32C_HAVE_SSE42
// The instruction computes the same reflected CRC over the bytes in
// memory order, so a little-endian 8-byte load feeds it 8 bytes at once.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(std::uint32_t state,
                                                                    const void* data,
                                                                    std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = state;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    size -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32;
}
#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

UpdateFn select_update() {
#ifdef WBSN_CRC32C_HAVE_SSE42
  __builtin_cpu_init();  // The first call may come from a static initializer.
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_update_sse42;
#endif
  return &detail::crc32c_update_table;
}

UpdateFn active_update() {
  static const UpdateFn fn = select_update();
  return fn;
}

}  // namespace

std::uint32_t detail::crc32c_update_table(std::uint32_t state, const void* data,
                                          std::size_t size) {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = state;
  while (size >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^ t[1][(crc >> 16) & 0xFFu] ^
          t[0][crc >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

bool detail::crc32c_hardware() { return active_update() != &detail::crc32c_update_table; }

std::uint32_t crc32c_update(std::uint32_t state, const void* data, std::size_t size) {
  return active_update()(state, data, size);
}

std::uint32_t crc32c(const void* data, std::size_t size) {
  return crc32c_finish(crc32c_update(kCrc32cInit, data, size));
}

}  // namespace wbsn::net
