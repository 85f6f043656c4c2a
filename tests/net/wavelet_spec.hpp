// A second WAVELET_RESIDUAL codec, written from docs/WIRE_FORMAT.md (§1,
// §3, §3.1) without the reference codec: its own byte and bit readers, a
// bit writer, the Db4 synthesis taps as the spec prints them, and the
// periodized cascade.  It reads a body into its fields (`Body`), writes
// any Body back out — including ones the reference encoder never emits:
// other Rice parameters, escapes of small values, set padding bits — and
// decodes a body into samples.  The codec tests replay the golden frame
// through it; the fuzz compares it with the reference decoder.
//
// Files that include this are compiled with -ffp-contract=off
// (tests/CMakeLists.txt), as §3.1 requires of the synthesis arithmetic.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wbsn::net::spec {

inline constexpr unsigned kEscape = 32;  ///< Rice quotient that escapes.
inline constexpr unsigned kMaxResidualParam = 56;
inline constexpr unsigned kMaxExponentParam = 10;
inline constexpr std::size_t kBlock = 16;

struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos >= data.size()) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i == 9 && byte > 1) ok = false;  // Overlong.
        return v;
      }
    }
    ok = false;
    return 0;
  }
  double f64() {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return std::bit_cast<double>(bits);
  }
};

/// One Rice-coded value, and whether it was written as an escape.
struct Code {
  std::uint64_t value = 0;
  bool escaped = false;
};

struct Coefficient {
  std::uint64_t sign = 0;
  Code offset;  ///< e_max minus the biased exponent.
  std::uint64_t mantissa = 0;
};

/// A WAVELET_RESIDUAL body, field by field.
struct Body {
  std::uint64_t count = 0;
  std::uint8_t levels = 0;
  std::vector<std::uint8_t> bitmap;
  std::uint64_t e_max = 0;           ///< Present when a bitmap bit is set.
  std::uint64_t exponent_param = 0;  ///< Likewise.
  std::vector<Coefficient> coefficients;
  std::vector<std::uint64_t> block_params;
  std::vector<Code> residuals;  ///< Zigzagged.
  std::uint64_t pad = 0;        ///< The padding bits, read as a number.
};

/// Bit-at-a-time LSB-first reader over the bytes after the bitmap.
struct BitReader {
  std::span<const std::uint8_t> data;
  std::size_t bit = 0;
  bool ok = true;

  std::uint64_t get(unsigned n) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (bit / 8 >= data.size()) {
        ok = false;
        return 0;
      }
      v |= static_cast<std::uint64_t>((data[bit / 8] >> (bit % 8)) & 1u) << i;
      ++bit;
    }
    return v;
  }
  Code rice(unsigned k) {
    for (unsigned q = 0; q < kEscape; ++q) {
      if (!ok) return {};
      if (get(1) == 1) return {(static_cast<std::uint64_t>(q) << k) | get(k), false};
    }
    return {get(64), true};
  }
};

/// Bit-at-a-time LSB-first writer.
struct BitWriter {
  std::vector<std::uint8_t> bytes;
  std::size_t bits = 0;

  void put(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i, ++bits) {
      if (bits % 8 == 0) bytes.push_back(0);
      bytes.back() |= static_cast<std::uint8_t>(((v >> i) & 1u) << (bits % 8));
    }
  }
  /// Rice(v, k) for k < 64; a quotient of kEscape or more always escapes.
  void rice(const Code& code, unsigned k) {
    const std::uint64_t q = code.value >> k;
    if (code.escaped || q >= kEscape) {
      put(0, kEscape);
      put(code.value, 64);
      return;
    }
    put(0, static_cast<unsigned>(q));
    put(1, 1);
    put(code.value, k);
  }
};

inline std::size_t kept_count(const Body& b) {
  std::size_t kept = 0;
  for (std::uint8_t byte : b.bitmap) kept += static_cast<std::size_t>(std::popcount(byte));
  return kept;
}

/// Reads a body (after the coding byte), applying every §3.1 rejection
/// that does not need the synthesis.
inline bool parse(Reader& r, Body& b) {
  b = Body{};
  b.count = r.varint();
  b.levels = r.u8();
  if (!r.ok || b.levels < 1 || b.count > 4096) return false;
  for (std::uint64_t len = b.count, l = 0; l < b.levels; ++l, len /= 2) {
    if (len < 4 || len % 2 != 0) return false;
  }
  b.bitmap.resize((b.count + 7) / 8);
  for (auto& byte : b.bitmap) byte = r.u8();
  if (!r.ok) return false;
  if (b.count % 8 != 0 && (b.bitmap.back() >> (b.count % 8)) != 0) return false;
  BitReader in{r.data.subspan(r.pos)};
  const std::size_t kept = kept_count(b);
  if (kept > 0) {
    b.e_max = in.get(11);
    b.exponent_param = in.get(4);
    if (b.e_max == 2047 || b.exponent_param > kMaxExponentParam) return false;
  }
  for (std::size_t j = 0; j < kept && in.ok; ++j) {
    Coefficient c;
    c.sign = in.get(1);
    c.offset = in.rice(static_cast<unsigned>(b.exponent_param));
    c.mantissa = in.get(52);
    if (c.offset.value > b.e_max) return false;
    b.coefficients.push_back(c);
  }
  for (std::uint64_t first = 0; first < b.count && in.ok; first += kBlock) {
    const std::uint64_t k = in.get(6);
    if (k > kMaxResidualParam) return false;
    b.block_params.push_back(k);
    for (std::uint64_t i = first; i < b.count && i < first + kBlock; ++i) {
      b.residuals.push_back(in.rice(static_cast<unsigned>(k)));
    }
  }
  if (!in.ok) return false;
  const unsigned pad_bits = static_cast<unsigned>((8 - in.bit % 8) % 8);
  b.pad = in.get(pad_bits);
  r.pos += in.bit / 8;
  return b.pad == 0;
}

/// Writes `b` as a coded vector: coding byte 4, then the body.  Fields the
/// bitmap leaves out are not written; a residual past the block list gets
/// parameter 0.
inline std::vector<std::uint8_t> write(const Body& b) {
  std::vector<std::uint8_t> out{4};
  for (std::uint64_t v = b.count;; v >>= 7) {
    out.push_back(static_cast<std::uint8_t>((v & 0x7F) | (v >= 0x80 ? 0x80 : 0)));
    if (v < 0x80) break;
  }
  out.push_back(b.levels);
  out.insert(out.end(), b.bitmap.begin(), b.bitmap.end());
  BitWriter w;
  if (kept_count(b) > 0) {
    w.put(b.e_max, 11);
    w.put(b.exponent_param, 4);
  }
  for (const auto& c : b.coefficients) {
    w.put(c.sign, 1);
    w.rice(c.offset, static_cast<unsigned>(b.exponent_param));
    w.put(c.mantissa, 52);
  }
  for (std::size_t i = 0; i < b.residuals.size(); ++i) {
    const std::size_t block = i / kBlock;
    const auto k = static_cast<unsigned>(block < b.block_params.size() ? b.block_params[block] : 0);
    if (i % kBlock == 0) w.put(k, 6);
    w.rice(b.residuals[i], k);
  }
  w.put(b.pad, static_cast<unsigned>((8 - w.bits % 8) % 8));
  out.insert(out.end(), w.bytes.begin(), w.bytes.end());
  return out;
}

inline constexpr double kH[4] = {0x1.ee8dd4748bf15p-2, 0x1.ac4bdd6e3fd71p-1,
                                 0x1.cb0bf0b6b7109p-3, -0x1.0907dc193069p-3};
inline constexpr double kG[4] = {-0x1.0907dc193069p-3, -0x1.cb0bf0b6b7109p-3,
                                 0x1.ac4bdd6e3fd71p-1, -0x1.ee8dd4748bf15p-2};

/// One synthesis step: 2h outputs from h approximation and h detail
/// coefficients, k' = (k - 1) mod h.
inline std::vector<double> synthesize(const std::vector<double>& a, const std::vector<double>& d) {
  const std::size_t h = a.size();
  std::vector<double> x(2 * h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t kp = (k + h - 1) % h;
    x[2 * k] = (kH[0] * a[k] + kG[0] * d[k]) + (kH[2] * a[kp] + kG[2] * d[kp]);
    x[2 * k + 1] = (kH[1] * a[k] + kG[1] * d[k]) + (kH[3] * a[kp] + kG[3] * d[kp]);
  }
  return x;
}

/// Samples of a parsed body; false when a prediction sample is not finite.
inline bool samples(const Body& b, std::vector<double>& out) {
  const auto n = static_cast<std::size_t>(b.count);
  std::vector<double> c(n, 0.0);
  for (std::size_t i = 0, j = 0; i < n; ++i) {
    if ((b.bitmap[i / 8] >> (i % 8)) & 1) {
      const Coefficient& k = b.coefficients[j++];
      c[i] = std::bit_cast<double>(k.sign << 63 | (b.e_max - k.offset.value) << 52 | k.mantissa);
    }
  }
  // The cascade: [approx_L | detail_L | detail_L-1 | ... | detail_1].
  std::size_t h = n >> b.levels;
  std::vector<double> p(c.begin(), c.begin() + static_cast<long>(h));
  for (unsigned l = 0; l < b.levels; ++l, h *= 2) {
    const std::vector<double> d(c.begin() + static_cast<long>(h),
                                c.begin() + static_cast<long>(2 * h));
    p = synthesize(p, d);
  }
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(p[i]);
    if ((bits >> 52 & 0x7FF) == 0x7FF) return false;
    const std::uint64_t z = b.residuals[i].value;
    out[i] = std::bit_cast<double>(bits + ((z >> 1) ^ (std::uint64_t{0} - (z & 1))));
  }
  return true;
}

/// Body of a coding-4 vector (after the coding byte) to samples.
inline bool decode_wavelet_residual(Reader& r, std::vector<double>& out, Body* parsed = nullptr) {
  Body b;
  if (!parse(r, b) || !samples(b, out)) return false;
  if (parsed != nullptr) *parsed = std::move(b);
  return true;
}

}  // namespace wbsn::net::spec
