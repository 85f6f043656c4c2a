#include "net/wire_format.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "cs/fista.hpp"
#include "dsp/wavelet.hpp"
#include "net/crc32c.hpp"

namespace wbsn::net {

// --- Low-level writers -------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_f64le(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// --- WireReader --------------------------------------------------------------

bool WireReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint32_t WireReader::u32le() {
  if (!take(4)) return 0;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                    (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                    (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
                    (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return v;
}

std::int16_t WireReader::i16le() {
  if (!take(2)) return 0;
  const auto v = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[pos_]) |
      (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return static_cast<std::int16_t>(v);
}

std::int32_t WireReader::i32le() { return static_cast<std::int32_t>(u32le()); }

double WireReader::f64le() {
  if (!take(8)) return 0.0;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t WireReader::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (!take(1)) return 0;
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      // The 10th byte may only contribute the final bit of a u64.
      if (shift == 63 && byte > 1) break;
      return v;
    }
  }
  ok_ = false;  // Unterminated or overlong varint.
  return 0;
}

std::uint32_t WireReader::varint_u32() {
  const std::uint64_t v = varint();
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint32_t>(v);
}

std::span<const std::uint8_t> WireReader::bytes(std::size_t n) {
  if (!take(n)) return {};
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

// --- Framing -----------------------------------------------------------------

std::size_t frame_begin(std::vector<std::uint8_t>& out, FrameType type) {
  put_u8(out, kMagic0);
  put_u8(out, kMagic1);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32le(out, 0);  // Payload length, patched by frame_end.
  return out.size();
}

void frame_end(std::vector<std::uint8_t>& out, std::size_t payload_start) {
  const std::size_t header_start = payload_start - kFrameHeaderBytes;
  const auto payload_len = static_cast<std::uint32_t>(out.size() - payload_start);
  out[payload_start - 4] = static_cast<std::uint8_t>(payload_len);
  out[payload_start - 3] = static_cast<std::uint8_t>(payload_len >> 8);
  out[payload_start - 2] = static_cast<std::uint8_t>(payload_len >> 16);
  out[payload_start - 1] = static_cast<std::uint8_t>(payload_len >> 24);
  const std::uint32_t crc = crc32c(out.data() + header_start, out.size() - header_start);
  put_u32le(out, crc);
}

FrameStatus peek_frame(std::span<const std::uint8_t> buf, FrameView& out,
                       std::uint32_t max_payload) {
  if (buf.size() < 2) return FrameStatus::kNeedMore;
  if (buf[0] != kMagic0 || buf[1] != kMagic1) return FrameStatus::kBadMagic;
  if (buf.size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  const std::uint32_t payload_len = static_cast<std::uint32_t>(buf[4]) |
                                    (static_cast<std::uint32_t>(buf[5]) << 8) |
                                    (static_cast<std::uint32_t>(buf[6]) << 16) |
                                    (static_cast<std::uint32_t>(buf[7]) << 24);
  if (payload_len > max_payload) return FrameStatus::kOversized;
  const std::size_t total = kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (buf.size() < total) return FrameStatus::kNeedMore;
  const std::size_t crc_at = kFrameHeaderBytes + payload_len;
  const std::uint32_t stored = static_cast<std::uint32_t>(buf[crc_at]) |
                               (static_cast<std::uint32_t>(buf[crc_at + 1]) << 8) |
                               (static_cast<std::uint32_t>(buf[crc_at + 2]) << 16) |
                               (static_cast<std::uint32_t>(buf[crc_at + 3]) << 24);
  if (crc32c(buf.data(), crc_at) != stored) return FrameStatus::kBadCrc;
  out.version = buf[2];
  out.type = static_cast<FrameType>(buf[3]);
  out.payload = buf.subspan(kFrameHeaderBytes, payload_len);
  out.frame_bytes = total;
  // Structurally sound but a version this decoder doesn't speak: report it
  // with the view filled so the caller can skip the frame and answer
  // ERROR(UNSUPPORTED_VERSION) in-band.
  return out.version == kWireVersion ? FrameStatus::kOk : FrameStatus::kBadVersion;
}

// --- Value-vector coding -----------------------------------------------------

namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint8_t* write_varint(std::uint8_t* w, std::uint64_t v) {
  while (v >= 0x80u) {
    *w++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *w++ = static_cast<std::uint8_t>(v);
  return w;
}

/// One 8-byte little-endian store and load.  On a little-endian host
/// they are one memcpy; byte stores through a uint8_t* may alias the
/// caller's state and force it to reload after each byte.
void store_u64le(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t load_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

enum class FixedFit : std::uint8_t { kFits, kOutOfRange, kOffGrid };

/// Appends `values` as `coding` (FIXED16 with Int = int16_t, FIXED32 with
/// int32_t) in one pass: one divide per value, written through a cursor
/// into a buffer pre-sized to `count` samples.  Each value is checked
/// against what the decoder rebuilds, double(integer) * scale, bitwise —
/// so −0.0 (whose integer 0 rebuilds as +0.0), NaN, infinities and
/// off-grid values all fail.  On the first failure `out` is rolled back:
/// an off-grid value rules out every fixed coding, an out-of-range one
/// only this width.
template <typename Int>
FixedFit try_encode_fixed(std::vector<std::uint8_t>& out, std::span<const double> values,
                          double scale, ValueCoding coding) {
  const std::size_t start = out.size();
  out.resize(start + 1 + 8 + 10 + sizeof(Int) * values.size());
  std::uint8_t* w = out.data() + start;
  *w++ = static_cast<std::uint8_t>(coding);
  store_u64le(w, double_bits(scale));
  w = write_varint(w + 8, values.size());
  for (double v : values) {
    const double q = std::nearbyint(v / scale);
    if (!(q >= std::numeric_limits<Int>::min() && q <= std::numeric_limits<Int>::max())) {
      out.resize(start);
      return std::isfinite(q) ? FixedFit::kOutOfRange : FixedFit::kOffGrid;
    }
    const auto integer = static_cast<Int>(q);
    if (double_bits(static_cast<double>(integer) * scale) != double_bits(v)) {
      out.resize(start);
      return FixedFit::kOffGrid;
    }
    const auto u = static_cast<std::make_unsigned_t<Int>>(integer);
    for (std::size_t b = 0; b < sizeof(Int); ++b) *w++ = static_cast<std::uint8_t>(u >> (8 * b));
  }
  out.resize(static_cast<std::size_t>(w - out.data()));
  return FixedFit::kFits;
}

}  // namespace

void encode_values(std::vector<std::uint8_t>& out, std::span<const double> values,
                   const WireEncodeOptions& opts) {
  const double scale = opts.fixed_scale;
  if (scale > 0.0 && std::isfinite(scale)) {
    FixedFit fit = try_encode_fixed<std::int16_t>(out, values, scale, ValueCoding::kFixed16);
    if (fit == FixedFit::kOutOfRange) {
      fit = try_encode_fixed<std::int32_t>(out, values, scale, ValueCoding::kFixed32);
    }
    if (fit == FixedFit::kFits) return;
  }
  put_u8(out, static_cast<std::uint8_t>(ValueCoding::kFloat64));
  put_varint(out, values.size());
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory doubles already are the wire's little-endian bytes.
    const std::size_t start = out.size();
    out.resize(start + 8 * values.size());
    if (!values.empty()) std::memcpy(out.data() + start, values.data(), 8 * values.size());
  } else {
    for (double v : values) put_f64le(out, v);
  }
}

void encode_values_absent(std::vector<std::uint8_t>& out) {
  put_u8(out, static_cast<std::uint8_t>(ValueCoding::kAbsent));
}

// --- WAVELET_RESIDUAL --------------------------------------------------------
// The encoder needs nothing but the signal: forward Db4 DWT, keep the
// coefficients above a relative floor, rebuild the prediction p with the
// kern inverse DWT, and ship bits(s) - bits(p) per sample.  The decoder
// runs the same inverse DWT — bit-identical on every backend (kern's
// canonical order) — so the residuals restore s exactly whatever the
// threshold kept; the threshold only decides the size.
//
// After the byte-aligned count, levels and bitmap, the body is one
// LSB-first bitstream (docs/WIRE_FORMAT.md §3.1): each kept coefficient as
// its sign, a Rice-coded exponent offset below the largest exponent, and
// its 52 raw mantissa bits; then per block of 16 samples a Rice parameter
// and the zigzagged residuals Rice-coded with it; zero padding to a byte.

namespace {

/// Coefficients at or below 2^-40 of the largest are dropped: a
/// converged FISTA window's re-derived zero coefficients sit near 2^-52
/// of the peak (rounding noise), its real ones far above.
constexpr int kKeepFloorExponent = -40;

/// Bitstream field widths and the largest legal Rice parameters.  A
/// parameter of at most 56 bits keeps every bit read within one refill of
/// the 64-bit bit buffer; exponent offsets stay below 2^11, so a larger
/// exponent parameter than 10 would never be shorter.
constexpr unsigned kExponentBits = 11;
constexpr unsigned kExponentParamBits = 4;
constexpr unsigned kMaxExponentParam = 10;
constexpr unsigned kResidualParamBits = 6;
constexpr unsigned kMaxResidualParam = 56;
constexpr unsigned kMantissaBits = 52;
constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << kMantissaBits) - 1;
constexpr std::uint64_t kNonFiniteExponent = 0x7FF;
/// Residuals share one Rice parameter per block of this many samples.
constexpr std::size_t kResidualBlock = 16;
/// A Rice quotient at or above this escapes: this many zero bits, then
/// the value in 64 raw bits.
constexpr unsigned kRiceEscape = 32;

std::uint64_t low_bits(std::uint64_t v, unsigned n) {
  return v & ((std::uint64_t{1} << n) - 1);
}

std::uint64_t biased_exponent(double c) { return (double_bits(c) >> kMantissaBits) & 0x7FF; }

/// Bits Rice(v, k) takes, the escape included.
std::uint64_t rice_bits(std::uint64_t v, unsigned k) {
  const std::uint64_t q = v >> k;
  return q < kRiceEscape ? q + 1 + k : kRiceEscape + 64;
}

std::uint64_t rice_cost(std::span<const std::uint64_t> values, unsigned k) {
  std::uint64_t bits = 0;
  for (std::uint64_t v : values) bits += rice_bits(v, k);
  return bits;
}

/// A Rice parameter in [0, k_max] for the non-empty `values`: start at
/// their mean bit width and step while a neighbour is strictly cheaper.
/// Any parameter decodes; this one only keeps the code short.  `bits`
/// receives its cost.
unsigned choose_rice_parameter(std::span<const std::uint64_t> values, unsigned k_max,
                               std::uint64_t& bits) {
  std::uint64_t width_sum = 0;
  for (std::uint64_t v : values) width_sum += static_cast<std::uint64_t>(std::bit_width(v));
  auto k = static_cast<unsigned>(std::min<std::uint64_t>(k_max, width_sum / values.size()));
  bits = rice_cost(values, k);
  for (const bool down : {true, false}) {
    bool moved = false;
    while (down ? k > 0 : k < k_max) {
      const unsigned next = down ? k - 1 : k + 1;
      const std::uint64_t cost = rice_cost(values, next);
      if (cost >= bits) break;
      bits = cost;
      k = next;
      moved = true;
    }
    if (moved) break;
  }
  return k;
}

/// LSB-first bit writer over a buffer with 8 bytes of room past the
/// stream's end: every put stores the whole 64-bit accumulator.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : w_(out) {}

  /// Appends the low `n` bits of `v` (n <= 56, v < 2^n).
  void put(std::uint64_t v, unsigned n) {
    acc_ |= v << fill_;
    fill_ += n;
    store_u64le(w_, acc_);
    const unsigned whole = fill_ & ~7u;
    w_ += whole / 8;
    acc_ >>= whole;
    fill_ -= whole;
  }

  /// Appends `prefix` (the low `prefix_bits` bits, at most 1) and then
  /// Rice(v, k) — the coefficient sign rides in front of its exponent
  /// offset.  The common code is one put.
  void rice(std::uint64_t v, unsigned k, std::uint64_t prefix = 0, unsigned prefix_bits = 0) {
    const std::uint64_t q = v >> k;
    if (q >= kRiceEscape) {
      put(prefix, prefix_bits + kRiceEscape);
      put(low_bits(v, 32), 32);
      put(v >> 32, 32);
      return;
    }
    const auto unary = static_cast<unsigned>(q) + 1;
    const std::uint64_t head = prefix | std::uint64_t{1} << (prefix_bits + unary - 1);
    if (prefix_bits + unary + k <= 56) {
      put(head | low_bits(v, k) << (prefix_bits + unary), prefix_bits + unary + k);
    } else {
      put(head, prefix_bits + unary);
      put(low_bits(v, k), k);
    }
  }

  /// End of the stream, its last byte zero-padded.
  std::uint8_t* finish() const { return w_ + (fill_ > 0 ? 1 : 0); }

 private:
  std::uint8_t* w_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// LSB-first bit reader.  It checks the bounds once per refill, which
/// loads a whole 64-bit word while 8 bytes remain and single bytes after.
/// A fixed-width read refills first, always: a refill of a full buffer
/// is a no-op, and cheaper than a branch on the fill level, which would
/// mispredict.  A Rice read refills only when the buffer might not hold a
/// whole code, so the short residual codes mostly decode from the buffer
/// alone and keep the refill's load off their dependency chain.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data)
      : begin_(data.data()), p_(data.data()), end_(data.data() + data.size()) {}

  /// The next `n` bits (n <= 56); false when the data ends first.
  bool get(unsigned n, std::uint64_t& v) {
    refill();
    if (fill_ < n) return false;
    v = low_bits(acc_, n);
    skip(n);
    return true;
  }

  /// Rice(v, k), after `prefix_bits` (0 or 1) bits returned in `prefix`
  /// — a kept coefficient's sign rides in front of its exponent offset,
  /// so the pair costs one buffer check instead of a refill plus one.
  bool rice(unsigned k, std::uint64_t& v, std::uint64_t* prefix = nullptr,
            unsigned prefix_bits = 0) {
    if (fill_ <= prefix_bits + kRiceEscape + k) refill();
    // Bits past fill_ are either the next bytes or zeros, so a quotient
    // that reaches past fill_ means the data ended.
    const auto q = static_cast<unsigned>(
        std::countr_zero(acc_ >> prefix_bits | (std::uint64_t{1} << kRiceEscape)));
    const unsigned head = prefix_bits + q + 1;
    if (q < kRiceEscape && head + k <= fill_) {  // The common code.
      if (prefix != nullptr) *prefix = low_bits(acc_, prefix_bits);
      v = static_cast<std::uint64_t>(q) << k | low_bits(acc_ >> head, k);
      skip(head + k);
      return true;
    }
    if (prefix != nullptr && !get(prefix_bits, *prefix)) return false;
    if (q == kRiceEscape) {
      std::uint64_t low = 0, high = 0;
      if (fill_ < kRiceEscape) return false;
      skip(kRiceEscape);
      if (!get(32, low) || !get(32, high)) return false;
      v = low | high << 32;
      return true;
    }
    if (fill_ < q + 1) return false;
    skip(q + 1);
    std::uint64_t remainder = 0;
    if (!get(k, remainder)) return false;
    v = static_cast<std::uint64_t>(q) << k | remainder;
    return true;
  }

  /// Bytes the stream took, its last partial byte included; false when
  /// that byte's unread (padding) bits are not all zero.
  bool finish(std::size_t& bytes) const {
    bytes = static_cast<std::size_t>(p_ - begin_) - fill_ / 8;
    return low_bits(acc_, fill_ % 8) == 0;
  }

 private:
  void skip(unsigned n) {
    acc_ >>= n;
    fill_ -= n;
  }

  void refill() {
    if (end_ - p_ >= 8) {
      acc_ |= load_u64le(p_) << fill_;
      p_ += (63 - fill_) >> 3;
      fill_ |= 56;
    } else {
      // Stop below 64 bits: skip() may then consume every buffered bit
      // without a 64-bit shift.
      while (fill_ < 56 && p_ < end_) {
        acc_ |= static_cast<std::uint64_t>(*p_++) << fill_;
        fill_ += 8;
      }
    }
  }

  const std::uint8_t* begin_;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  ///< Unread bits at the bottom of acc_.
};

/// Per-thread coder scratch, grown to the largest vector seen: the
/// coefficients, the DWT inter-level buffer, and (encode only) the
/// prediction, the bitmap, the kept coefficients' bits, the Rice symbols
/// and the residual blocks' parameters.
struct WaveletScratch {
  std::vector<double> coeffs, dwt, prediction;
  std::vector<std::uint64_t> kept_bits, offsets, residuals;
  std::vector<std::uint8_t> bitmap, block_params;

  void ensure(std::size_t n) {
    if (coeffs.size() >= n) return;
    coeffs.resize(n);
    dwt.resize(n);
    prediction.resize(n);
    kept_bits.resize(n);
    offsets.resize(n);
    residuals.resize(n);
    bitmap.resize((n + 7) / 8);
    block_params.resize((n + kResidualBlock - 1) / kResidualBlock);
  }
};

WaveletScratch& wavelet_scratch() {
  static thread_local WaveletScratch scratch;
  return scratch;
}

/// Signed residual (a mod-2^64 difference read as two's complement) to
/// an unsigned value with small magnitudes small, and back.
std::uint64_t zigzag(std::uint64_t d) { return (d << 1) ^ (std::uint64_t{0} - (d >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (std::uint64_t{0} - (z & 1)); }

/// Bytes a reconstructed-signal vector of n samples can take: FLOAT64's
/// coding byte, 10-byte count and 8n, which also covers a
/// WAVELET_RESIDUAL vector (its body is smaller than 8n) and the 8 bytes
/// the bit writer stores past the stream's end.
constexpr std::size_t signal_worst_bytes(std::size_t n) { return 1 + 10 + 8 * n + 8; }

/// Appends the WAVELET_RESIDUAL coding of `values` and returns true only
/// when it is strictly smaller than FLOAT64; otherwise leaves `out`
/// untouched.  The loops over coefficients are branch-free: which ones
/// are kept follows the signal, and a branch on it mispredicts often.
bool try_encode_wavelet(std::vector<std::uint8_t>& out, std::span<const double> values) {
  const std::size_t n = values.size();
  // The solver's decomposition depth, capped by what n admits.
  const int levels = std::min(cs::FistaConfig{}.dwt_levels, dsp::dwt_max_levels(n));
  if (levels < 1 || n > kMaxWindowSamples) return false;
  auto& s = wavelet_scratch();
  s.ensure(n);
  double* coeffs = s.coeffs.data();
  dsp::dwt_forward_into(values, levels, {coeffs, n}, s.dwt);
  double peak = 0.0;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double magnitude = std::fabs(coeffs[i]);
    finite &= magnitude <= std::numeric_limits<double>::max();
    peak = std::max(peak, magnitude);
  }
  if (!finite) return false;

  // Keep the coefficients above the floor, zero the rest (what the
  // decoder puts at an unset bitmap position), and list the kept ones.
  const double floor = std::ldexp(peak, kKeepFloorExponent);
  const std::size_t bitmap_bytes = (n + 7) / 8;
  std::uint64_t* kept_bits = s.kept_bits.data();
  std::size_t kept = 0;
  std::uint64_t e_max = 0;
  for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
    unsigned set = 0;
    for (std::size_t b = 0, i = 8 * byte; b < 8 && i < n; ++b, ++i) {
      const bool keep = std::fabs(coeffs[i]) > floor;
      coeffs[i] = keep ? coeffs[i] : 0.0;
      kept_bits[kept] = double_bits(coeffs[i]);
      kept += keep;
      e_max = std::max(e_max, biased_exponent(coeffs[i]));
      set |= static_cast<unsigned>(keep) << b;
    }
    s.bitmap[byte] = static_cast<std::uint8_t>(set);
  }
  // FLOAT64 spends 8n bytes after the shared coding byte and count; give
  // up before the inverse DWT when even 1-byte residuals could not win.
  const std::size_t float64_bytes = 8 * n;
  if (1 + bitmap_bytes + 8 * kept + n >= float64_bytes) return false;
  dsp::dwt_inverse_into({coeffs, n}, levels, s.prediction, s.dwt);
  std::uint64_t* residuals = s.residuals.data();
  for (std::size_t i = 0; i < n; ++i) {
    finite &= std::isfinite(s.prediction[i]);
    residuals[i] = zigzag(double_bits(values[i]) - double_bits(s.prediction[i]));
  }
  if (!finite) return false;

  // Choose every Rice parameter first: that fixes the stream's exact size,
  // so the FLOAT64 comparison needs no trial write.
  std::uint64_t bits = 0;
  unsigned exponent_param = 0;
  if (kept > 0) {
    for (std::size_t j = 0; j < kept; ++j) {
      s.offsets[j] = e_max - (kept_bits[j] >> kMantissaBits & 0x7FF);
    }
    exponent_param = choose_rice_parameter({s.offsets.data(), kept}, kMaxExponentParam, bits);
    bits += kExponentBits + kExponentParamBits + kept * (1 + kMantissaBits);
  }
  for (std::size_t first = 0, block = 0; first < n; first += kResidualBlock, ++block) {
    std::uint64_t block_bits = 0;
    s.block_params[block] = static_cast<std::uint8_t>(choose_rice_parameter(
        {residuals + first, std::min(kResidualBlock, n - first)}, kMaxResidualParam,
        block_bits));
    bits += kResidualParamBits + block_bits;
  }
  const std::size_t stream_bytes = static_cast<std::size_t>((bits + 7) / 8);
  if (1 + bitmap_bytes + stream_bytes >= float64_bytes) return false;

  const std::size_t start = out.size();
  out.resize(start + signal_worst_bytes(n));
  std::uint8_t* w = out.data() + start;
  *w++ = static_cast<std::uint8_t>(ValueCoding::kWaveletResidual);
  w = write_varint(w, n);
  *w++ = static_cast<std::uint8_t>(levels);
  std::memcpy(w, s.bitmap.data(), bitmap_bytes);
  BitWriter stream(w + bitmap_bytes);
  if (kept > 0) {
    stream.put(e_max, kExponentBits);
    stream.put(exponent_param, kExponentParamBits);
    for (std::size_t j = 0; j < kept; ++j) {
      stream.rice(s.offsets[j], exponent_param, kept_bits[j] >> 63, 1);
      stream.put(kept_bits[j] & kMantissaMask, kMantissaBits);
    }
  }
  for (std::size_t first = 0, block = 0; first < n; first += kResidualBlock, ++block) {
    const unsigned k = s.block_params[block];
    stream.put(k, kResidualParamBits);
    const std::size_t last = std::min(n, first + kResidualBlock);
    for (std::size_t i = first; i < last; ++i) stream.rice(residuals[i], k);
  }
  out.resize(static_cast<std::size_t>(stream.finish() - out.data()));
  return true;
}

bool decode_wavelet(WireReader& r, std::vector<double>& out) {
  const std::uint64_t count = r.varint();
  const int levels = r.u8();
  // levels <= dwt_max_levels(count) also makes count a multiple of
  // 2^levels with every cascade stage at least 4 long.
  if (!r.ok() || count > kMaxWindowSamples || levels < 1 ||
      levels > dsp::dwt_max_levels(static_cast<std::size_t>(count))) {
    return false;
  }
  const auto n = static_cast<std::size_t>(count);
  const auto bitmap = r.bytes((n + 7) / 8);
  if (!r.ok()) return false;
  if (n % 8 != 0 && (bitmap.back() >> (n % 8)) != 0) return false;  // Padding bits.
  std::size_t kept = 0;
  for (std::uint8_t byte : bitmap) kept += static_cast<std::size_t>(std::popcount(byte));

  BitReader stream(r.rest());
  std::uint64_t e_max = 0;
  std::uint64_t exponent_param = 0;
  // e_max below 2047 also keeps every decoded coefficient finite.
  if (kept > 0 && (!stream.get(kExponentBits, e_max) ||
                   !stream.get(kExponentParamBits, exponent_param) ||
                   e_max == kNonFiniteExponent || exponent_param > kMaxExponentParam)) {
    return false;
  }
  auto& s = wavelet_scratch();
  s.ensure(n);
  double* coeffs = s.coeffs.data();
  std::fill_n(coeffs, n, 0.0);
  // Visit the set bitmap bits a 64-bit word at a time.
  for (std::size_t word = 0; word < bitmap.size(); word += 8) {
    std::uint64_t set = 0;
    const std::size_t len = std::min<std::size_t>(8, bitmap.size() - word);
    for (std::size_t b = 0; b < len; ++b) {
      set |= static_cast<std::uint64_t>(bitmap[word + b]) << (8 * b);
    }
    for (; set != 0; set &= set - 1) {
      std::uint64_t sign = 0, offset = 0, mantissa = 0;
      if (!stream.rice(static_cast<unsigned>(exponent_param), offset, &sign, 1) ||
          offset > e_max || !stream.get(kMantissaBits, mantissa)) {
        return false;
      }
      coeffs[8 * word + static_cast<std::size_t>(std::countr_zero(set))] =
          std::bit_cast<double>(sign << 63 | (e_max - offset) << kMantissaBits | mantissa);
    }
  }
  out.resize(n);
  dsp::dwt_inverse_into({coeffs, n}, levels, out, s.dwt);
  bool finite = true;
  for (double p : out) finite &= std::isfinite(p);
  if (!finite) return false;
  for (std::size_t first = 0; first < n; first += kResidualBlock) {
    std::uint64_t k = 0;
    if (!stream.get(kResidualParamBits, k) || k > kMaxResidualParam) return false;
    const std::size_t last = std::min(n, first + kResidualBlock);
    for (std::size_t i = first; i < last; ++i) {
      std::uint64_t z = 0;
      if (!stream.rice(static_cast<unsigned>(k), z)) return false;
      out[i] = std::bit_cast<double>(double_bits(out[i]) + unzigzag(z));
    }
  }
  std::size_t stream_bytes = 0;
  if (!stream.finish(stream_bytes)) return false;  // Non-zero padding.
  r.bytes(stream_bytes);
  return r.ok();
}

}  // namespace

ValueCoding encode_signal_values(std::vector<std::uint8_t>& out,
                                 std::span<const double> values) {
  if (try_encode_wavelet(out, values)) return ValueCoding::kWaveletResidual;
  encode_values(out, values, WireEncodeOptions{});
  return ValueCoding::kFloat64;
}

bool decode_values(WireReader& r, std::vector<double>& out, host::PayloadPool* pool) {
  out.clear();
  const auto coding = static_cast<ValueCoding>(r.u8());
  if (!r.ok()) return false;
  if (coding != ValueCoding::kAbsent && pool != nullptr && out.capacity() == 0) {
    out = pool->acquire();
  }
  switch (coding) {
    case ValueCoding::kAbsent:
      return true;
    case ValueCoding::kFloat64: {
      const std::uint64_t count = r.varint();
      if (!r.ok() || count > r.remaining() / 8) return false;
      out.resize(static_cast<std::size_t>(count));
      if constexpr (std::endian::native == std::endian::little) {
        const auto bytes = r.bytes(8 * out.size());
        if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
      } else {
        for (auto& v : out) v = r.f64le();
      }
      return r.ok();
    }
    case ValueCoding::kFixed16: {
      const double scale = r.f64le();
      const std::uint64_t count = r.varint();
      if (!r.ok() || count > r.remaining() / 2) return false;
      out.resize(static_cast<std::size_t>(count));
      for (auto& v : out) v = static_cast<double>(r.i16le()) * scale;
      return r.ok();
    }
    case ValueCoding::kFixed32: {
      const double scale = r.f64le();
      const std::uint64_t count = r.varint();
      if (!r.ok() || count > r.remaining() / 4) return false;
      out.resize(static_cast<std::size_t>(count));
      for (auto& v : out) v = static_cast<double>(r.i32le()) * scale;
      return r.ok();
    }
    case ValueCoding::kWaveletResidual:
      return decode_wavelet(r, out);
  }
  return false;  // Unknown coding byte.
}

// --- Typed payloads ----------------------------------------------------------

void encode_hello(std::vector<std::uint8_t>& out, const HelloPayload& hello) {
  const std::size_t p = frame_begin(out, FrameType::kHello);
  put_u8(out, hello.min_version);
  put_u8(out, hello.max_version);
  frame_end(out, p);
}

bool decode_hello(std::span<const std::uint8_t> payload, HelloPayload& out) {
  WireReader r(payload);
  out.min_version = r.u8();
  out.max_version = r.u8();
  return r.ok() && r.remaining() == 0 && out.min_version <= out.max_version;
}

void encode_hello_ack(std::vector<std::uint8_t>& out, std::uint8_t version) {
  const std::size_t p = frame_begin(out, FrameType::kHelloAck);
  put_u8(out, version);
  frame_end(out, p);
}

bool decode_hello_ack(std::span<const std::uint8_t> payload, std::uint8_t& version) {
  WireReader r(payload);
  version = r.u8();
  return r.ok() && r.remaining() == 0;
}

void encode_error(std::vector<std::uint8_t>& out, const ErrorPayload& error) {
  const std::size_t p = frame_begin(out, FrameType::kError);
  put_u8(out, static_cast<std::uint8_t>(error.code));
  put_varint(out, error.detail.size());
  out.insert(out.end(), error.detail.begin(), error.detail.end());
  frame_end(out, p);
}

bool decode_error(std::span<const std::uint8_t> payload, ErrorPayload& out) {
  WireReader r(payload);
  out.code = static_cast<ErrorCode>(r.u8());
  const std::uint64_t len = r.varint();
  if (!r.ok() || len > r.remaining()) return false;
  const auto view = r.bytes(static_cast<std::size_t>(len));
  out.detail.assign(view.begin(), view.end());
  return r.ok() && r.remaining() == 0;
}

namespace {

/// Smallest well-shaped window body: seven one-byte header fields, a
/// one-sample FLOAT64 measurement vector (coding, count, 8 bytes — the
/// fixed codings are larger), and an ABSENT reference.
constexpr std::size_t kMinWindowBodyBytes = 7 + 10 + 1;

/// One SUBMIT_BATCH entry.
void encode_window_body(std::vector<std::uint8_t>& out, const host::CompressedWindow& window,
                        const WireEncodeOptions& opts) {
  put_varint(out, window.patient_id);
  put_varint(out, window.window_index);
  put_varint(out, window.matrix_seed);
  put_varint(out, window.window_samples);
  put_varint(out, window.ones_per_column);
  put_u8(out, static_cast<std::uint8_t>(window.priority));
  put_varint(out, window.route_tag);
  encode_values(out, window.measurements, opts);
  if (window.reference.empty()) {
    encode_values_absent(out);
  } else {
    encode_values(out, window.reference, opts);
  }
}

bool decode_window_body(WireReader& r, host::CompressedWindow& out, host::PayloadPool* pool) {
  out.patient_id = r.varint_u32();
  out.window_index = r.varint_u32();
  out.matrix_seed = r.varint();
  // The shape is checked at full width, before narrowing to the window's
  // u32 fields, so an oversized varint cannot wrap into a valid shape.
  const std::uint64_t n = r.varint();
  const std::uint64_t d = r.varint();
  out.window_samples = static_cast<std::uint32_t>(n);
  out.ones_per_column = static_cast<std::uint32_t>(d);
  out.priority = static_cast<cs::WindowPriority>(r.u8());
  out.route_tag = r.varint_u32();
  if (!decode_values(r, out.measurements, pool)) return false;
  // ABSENT is the only coding that is a single byte; a coded vector
  // carries at least a count after its coding byte.
  const std::size_t before_reference = r.remaining();
  if (!decode_values(r, out.reference, pool)) return false;
  const bool reference_absent = before_reference - r.remaining() == 1;
  const std::uint64_t m = out.measurements.size();
  return r.ok() && m >= 1 && m <= n && n <= kMaxWindowSamples && d >= 1 && d <= m &&
         d <= kMaxOnesPerColumn && (reference_absent || out.reference.size() == n);
}

}  // namespace

ValueCoding encode_result_entry(std::vector<std::uint8_t>& staging,
                                const host::WindowResult& result,
                                const WireEncodeOptions& opts) {
  // Reserve the entry's worst case first: five varints at 10 bytes, the
  // priority byte, three doubles, and the signal's worst case.  The
  // capacity then follows the signal length alone, not how wide this
  // entry's ticket happens to be, so steady traffic never regrows it.
  constexpr std::size_t kHeaderWorstBytes = 5 * 10 + 1 + 3 * 8;
  const std::size_t need = staging.size() + kHeaderWorstBytes +
                           signal_worst_bytes(result.signal.size());
  if (staging.capacity() < need) staging.reserve(std::max(need, 2 * staging.capacity()));
  put_varint(staging, result.patient_id);
  put_varint(staging, result.window_index);
  put_u8(staging, static_cast<std::uint8_t>(result.priority));
  put_varint(staging, result.route_tag);
  put_varint(staging, result.ticket);
  put_f64le(staging, result.snr_db);
  put_varint(staging,
             static_cast<std::uint64_t>(result.iterations < 0 ? 0 : result.iterations));
  put_f64le(staging, result.latency_ms);
  put_f64le(staging, result.e2e_ms);
  // Reconstructed signals are FISTA output, not on the fixed-point grid:
  // they ship WAVELET_RESIDUAL or FLOAT64, both bit-exact, so the
  // determinism contract survives the wire.
  (void)opts;
  return encode_signal_values(staging, result.signal);
}

bool decode_result_entry(WireReader& r, host::WindowResult& out, host::PayloadPool* pool) {
  out.patient_id = r.varint_u32();
  out.window_index = r.varint_u32();
  out.priority = static_cast<cs::WindowPriority>(r.u8());
  out.route_tag = r.varint_u32();
  out.ticket = r.varint();
  out.snr_db = r.f64le();
  const std::uint32_t iterations = r.varint_u32();
  if (iterations > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) return false;
  out.iterations = static_cast<int>(iterations);
  out.latency_ms = r.f64le();
  out.e2e_ms = r.f64le();
  if (!decode_values(r, out.signal, pool)) return false;
  return r.ok();
}

void encode_patient_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::uint32_t patient_id) {
  const std::size_t p = frame_begin(out, type);
  put_varint(out, patient_id);
  frame_end(out, p);
}

bool decode_patient_frame(std::span<const std::uint8_t> payload, std::uint32_t& patient_id) {
  WireReader r(payload);
  patient_id = r.varint_u32();
  return r.ok() && r.remaining() == 0;
}

void encode_slo_state(std::vector<std::uint8_t>& out, FrameType type,
                      const SloStatePayload& slo) {
  const std::size_t p = frame_begin(out, type);
  put_varint(out, slo.patient_id);
  put_u8(out, slo.present ? 1 : 0);
  if (slo.present) {
    const auto& s = slo.state;
    put_varint(out, s.submitted);
    put_varint(out, s.completed);
    put_varint(out, s.retrieved);
    put_varint(out, s.shed_routine);
    put_varint(out, s.shed_urgent);
    put_varint(out, s.rejected);
    put_varint(out, s.violations);
    put_varint(out, s.sum_us);
    put_varint(out, s.max_us);
    put_varint(out, s.max_in_flight);
    put_varint(out, s.elapsed_us);
    // Only the non-zero bins travel, as (index, count) in index order.
    put_varint(out, static_cast<std::uint64_t>(
                        std::count_if(s.buckets.begin(), s.buckets.end(),
                                      [](std::uint64_t count) { return count > 0; })));
    for (std::size_t index = 0; index < s.buckets.size(); ++index) {
      if (s.buckets[index] == 0) continue;
      put_varint(out, index);
      put_varint(out, s.buckets[index]);
    }
  }
  frame_end(out, p);
}

bool decode_slo_state(std::span<const std::uint8_t> payload, SloStatePayload& out) {
  WireReader r(payload);
  out.patient_id = r.varint_u32();
  const std::uint8_t present = r.u8();
  if (!r.ok() || present > 1) return false;
  out.present = present == 1;
  out.state = host::SloTrackerState{};
  if (out.present) {
    auto& s = out.state;
    s.submitted = r.varint();
    s.completed = r.varint();
    s.retrieved = r.varint();
    s.shed_routine = r.varint();
    s.shed_urgent = r.varint();
    s.rejected = r.varint();
    s.violations = r.varint();
    s.sum_us = r.varint();
    s.max_us = r.varint();
    s.max_in_flight = r.varint();
    s.elapsed_us = r.varint();
    const std::uint64_t n = r.varint();
    if (!r.ok() || n > r.remaining() / 2) return false;  // >= 2 bytes per bin.
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = r.varint();
      const std::uint64_t count = r.varint();
      // A bin past this build's histogram (a corrupt or foreign peer) is
      // dropped, never written out of bounds.
      if (index < s.buckets.size()) s.buckets[index] += count;
    }
  }
  return r.ok() && r.remaining() == 0;
}

void encode_adopt_ack(std::vector<std::uint8_t>& out, bool adopted) {
  const std::size_t p = frame_begin(out, FrameType::kAdoptAck);
  put_u8(out, adopted ? 1 : 0);
  frame_end(out, p);
}

bool decode_adopt_ack(std::span<const std::uint8_t> payload, bool& adopted) {
  WireReader r(payload);
  const std::uint8_t v = r.u8();
  adopted = v == 1;
  return r.ok() && v <= 1 && r.remaining() == 0;
}

void encode_snapshot_request(std::vector<std::uint8_t>& out, std::uint64_t nonce) {
  const std::size_t p = frame_begin(out, FrameType::kSnapshotRequest);
  put_varint(out, nonce);
  frame_end(out, p);
}

bool decode_snapshot_request(std::span<const std::uint8_t> payload, std::uint64_t& nonce) {
  WireReader r(payload);
  nonce = r.varint();
  return r.ok() && r.remaining() == 0;
}

void encode_snapshot(std::vector<std::uint8_t>& out, std::uint64_t nonce,
                     const SnapshotPayload& snap, std::uint32_t advisory_cr_centi) {
  const std::size_t p = frame_begin(out, FrameType::kSnapshot);
  put_varint(out, nonce);
  put_varint(out, snap.submitted);
  put_varint(out, snap.completed);
  put_varint(out, snap.retrieved);
  put_varint(out, snap.shed_routine);
  put_varint(out, snap.shed_urgent);
  put_varint(out, snap.rejected);
  put_varint(out, snap.deadline_violations);
  put_varint(out, snap.unsolved);
  put_varint(out, snap.ready);
  put_varint(out, advisory_cr_centi);
  frame_end(out, p);
}

bool decode_snapshot(std::span<const std::uint8_t> payload, std::uint64_t& nonce,
                     SnapshotPayload& out, std::uint32_t& advisory_cr_centi) {
  WireReader r(payload);
  nonce = r.varint();
  out.submitted = r.varint();
  out.completed = r.varint();
  out.retrieved = r.varint();
  out.shed_routine = r.varint();
  out.shed_urgent = r.varint();
  out.rejected = r.varint();
  out.deadline_violations = r.varint();
  out.unsolved = r.varint();
  out.ready = r.varint();
  advisory_cr_centi = r.varint_u32();
  return r.ok() && r.remaining() == 0;
}

void encode_bye(std::vector<std::uint8_t>& out) {
  frame_end(out, frame_begin(out, FrameType::kBye));
}

void encode_bye_ack(std::vector<std::uint8_t>& out) {
  frame_end(out, frame_begin(out, FrameType::kByeAck));
}

// --- Batched data frames -----------------------------------------------------

void encode_submit_batch_entry(std::vector<std::uint8_t>& staging,
                               const host::CompressedWindow& window,
                               const WireEncodeOptions& opts) {
  encode_window_body(staging, window, opts);
}

void encode_submit_batch_prefix(std::vector<std::uint8_t>& out, std::uint8_t flags,
                                std::uint64_t count, std::size_t bodies_len) {
  put_u8(out, kMagic0);
  put_u8(out, kMagic1);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(FrameType::kSubmitBatch));
  const std::size_t len_at = out.size();
  put_u32le(out, 0);
  put_u8(out, flags);
  put_varint(out, count);
  const std::size_t payload_len = (out.size() - len_at - 4) + bodies_len;
  out[len_at] = static_cast<std::uint8_t>(payload_len);
  out[len_at + 1] = static_cast<std::uint8_t>(payload_len >> 8);
  out[len_at + 2] = static_cast<std::uint8_t>(payload_len >> 16);
  out[len_at + 3] = static_cast<std::uint8_t>(payload_len >> 24);
}

void encode_submit_batch_trailer(std::vector<std::uint8_t>& out,
                                 std::span<const std::uint8_t> prefix,
                                 std::span<const std::uint8_t> bodies) {
  std::uint32_t state = kCrc32cInit;
  state = crc32c_update(state, prefix.data(), prefix.size());
  state = crc32c_update(state, bodies.data(), bodies.size());
  put_u32le(out, crc32c_finish(state));
}

void encode_submit_batch(std::vector<std::uint8_t>& out,
                         std::span<const host::CompressedWindow> windows,
                         std::uint8_t flags, const WireEncodeOptions& opts) {
  const std::size_t p = frame_begin(out, FrameType::kSubmitBatch);
  put_u8(out, flags);
  put_varint(out, windows.size());
  for (const auto& window : windows) encode_window_body(out, window, opts);
  frame_end(out, p);
}

bool decode_submit_batch_header(WireReader& r, std::uint8_t& flags, std::uint64_t& count) {
  flags = r.u8();
  count = r.varint();
  // Bounding count by the smallest body up front keeps a hostile count
  // from driving a loop or a reserve().
  return r.ok() && count <= r.remaining() / kMinWindowBodyBytes;
}

bool decode_submit_batch_entry(WireReader& r, host::CompressedWindow& out,
                               host::PayloadPool* pool) {
  return decode_window_body(r, out, pool);
}

bool decode_submit_batch(std::span<const std::uint8_t> payload, std::uint8_t& flags,
                         std::vector<host::CompressedWindow>& out, host::PayloadPool* pool) {
  WireReader r(payload);
  std::uint64_t count = 0;
  if (!decode_submit_batch_header(r, flags, count)) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    host::CompressedWindow window;
    if (!decode_submit_batch_entry(r, window, pool)) return false;
    out.push_back(std::move(window));
  }
  return r.ok() && r.remaining() == 0;
}

void encode_submit_batch_ack(std::vector<std::uint8_t>& out,
                             std::span<const SubmitBatchAckEntry> entries,
                             std::span<const std::uint8_t> result_bodies,
                             std::uint64_t result_count) {
  const std::size_t p = frame_begin(out, FrameType::kSubmitBatchAck);
  put_varint(out, entries.size());
  for (const auto& entry : entries) {
    put_u8(out, entry.accepted ? 1 : 0);
    if (entry.accepted) put_varint(out, entry.local_ticket);
  }
  put_varint(out, result_count);
  out.insert(out.end(), result_bodies.begin(), result_bodies.end());
  frame_end(out, p);
}

namespace {

/// `count` result bodies off `r` into `out`: RESULT_BATCH's list, and the
/// tail of a SUBMIT_BATCH_ACK.
bool decode_result_list(WireReader& r, std::vector<host::WindowResult>& out,
                        host::PayloadPool* pool) {
  std::uint64_t count = 0;
  if (!decode_result_batch_header(r, count)) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    host::WindowResult result;
    if (!decode_result_entry(r, result, pool)) return false;
    out.push_back(std::move(result));
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace

bool decode_submit_batch_ack(std::span<const std::uint8_t> payload,
                             std::vector<SubmitBatchAckEntry>& out,
                             std::vector<host::WindowResult>& results, host::PayloadPool* pool) {
  WireReader r(payload);
  const std::uint64_t count = r.varint();
  if (!r.ok() || count > r.remaining()) return false;  // >= 1 byte per entry.
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    SubmitBatchAckEntry entry;
    const std::uint8_t accepted = r.u8();
    if (!r.ok() || accepted > 1) return false;
    entry.accepted = accepted == 1;
    if (entry.accepted) entry.local_ticket = r.varint();
    out.push_back(entry);
  }
  return decode_result_list(r, results, pool);
}

void encode_poll_many(std::vector<std::uint8_t>& out, std::uint32_t max_results) {
  const std::size_t p = frame_begin(out, FrameType::kPollMany);
  put_varint(out, max_results);
  frame_end(out, p);
}

bool decode_poll_many(std::span<const std::uint8_t> payload, std::uint32_t& max_results) {
  WireReader r(payload);
  max_results = r.varint_u32();
  return r.ok() && r.remaining() == 0;
}

void encode_result_batch(std::vector<std::uint8_t>& out,
                         std::span<const std::uint8_t> bodies, std::uint64_t count) {
  const std::size_t p = frame_begin(out, FrameType::kResultBatch);
  put_varint(out, count);
  out.insert(out.end(), bodies.begin(), bodies.end());
  frame_end(out, p);
}

bool decode_result_batch_header(WireReader& r, std::uint64_t& count) {
  const std::uint64_t n = r.varint();
  // A result body is well over 8 bytes; 1 byte/entry bounds a hostile count.
  if (!r.ok() || n > r.remaining()) return false;
  count = n;
  return true;
}

bool decode_result_batch(std::span<const std::uint8_t> payload,
                         std::vector<host::WindowResult>& out, host::PayloadPool* pool) {
  WireReader r(payload);
  return decode_result_list(r, out, pool);
}

}  // namespace wbsn::net
