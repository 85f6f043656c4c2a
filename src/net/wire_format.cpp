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

void put_i16le(std::vector<std::uint8_t>& out, std::int16_t v) {
  const auto u = static_cast<std::uint16_t>(v);
  out.push_back(static_cast<std::uint8_t>(u));
  out.push_back(static_cast<std::uint8_t>(u >> 8));
}

void put_i32le(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32le(out, static_cast<std::uint32_t>(v));
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

/// True when every value is bit-exactly representable as q * scale with q
/// a signed integer in [lo, hi].  Quantization uses nearbyint and the
/// check is a bitwise round-trip compare, so −0.0, NaN, infinities, and
/// anything off-grid all fail into the FLOAT64 fallback.
bool fits_fixed(std::span<const double> values, double scale, double lo, double hi) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
    const double q = std::nearbyint(v / scale);
    if (!(q >= lo && q <= hi)) return false;
    const double back = q * scale;
    if (std::memcmp(&back, &v, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace

void encode_values(std::vector<std::uint8_t>& out, std::span<const double> values,
                   const WireEncodeOptions& opts) {
  const double scale = opts.fixed_scale;
  if (scale > 0.0 && std::isfinite(scale)) {
    if (fits_fixed(values, scale, std::numeric_limits<std::int16_t>::min(),
                   std::numeric_limits<std::int16_t>::max())) {
      put_u8(out, static_cast<std::uint8_t>(ValueCoding::kFixed16));
      put_f64le(out, scale);
      put_varint(out, values.size());
      for (double v : values) {
        put_i16le(out, static_cast<std::int16_t>(std::nearbyint(v / scale)));
      }
      return;
    }
    if (fits_fixed(values, scale, std::numeric_limits<std::int32_t>::min(),
                   std::numeric_limits<std::int32_t>::max())) {
      put_u8(out, static_cast<std::uint8_t>(ValueCoding::kFixed32));
      put_f64le(out, scale);
      put_varint(out, values.size());
      for (double v : values) {
        put_i32le(out, static_cast<std::int32_t>(std::nearbyint(v / scale)));
      }
      return;
    }
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

namespace {

/// Coefficients at or below 2^-40 of the largest are dropped: a
/// converged FISTA window's re-derived zero coefficients sit near 2^-52
/// of the peak (rounding noise), its real ones far above.
constexpr int kKeepFloorExponent = -40;

/// Per-thread coder scratch, grown to the largest vector seen: the
/// coefficients, the DWT inter-level buffer, and (encode only) the
/// prediction.
struct WaveletScratch {
  std::vector<double> coeffs, dwt, prediction;

  void ensure(std::size_t n) {
    if (coeffs.size() >= n) return;
    coeffs.resize(n);
    dwt.resize(n);
    prediction.resize(n);
  }
};

WaveletScratch& wavelet_scratch() {
  static thread_local WaveletScratch scratch;
  return scratch;
}

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Signed residual (a mod-2^64 difference read as two's complement) to
/// an unsigned varint value with small magnitudes small, and back.
std::uint64_t zigzag(std::uint64_t d) { return (d << 1) ^ (std::uint64_t{0} - (d >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (std::uint64_t{0} - (z & 1)); }

/// Bytes the WAVELET_RESIDUAL writer resizes to before trimming: coding
/// byte, 10-byte count, levels, bitmap, `kept` coefficients and 10-byte
/// residuals.  With kept == n it also bounds FLOAT64 (1 + 10 + 8n).
constexpr std::size_t wavelet_worst_bytes(std::size_t n, std::size_t kept) {
  return 1 + 10 + 1 + (n + 7) / 8 + 8 * kept + 10 * n;
}

std::uint8_t* write_varint(std::uint8_t* w, std::uint64_t v) {
  while (v >= 0x80u) {
    *w++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *w++ = static_cast<std::uint8_t>(v);
  return w;
}

std::uint8_t* write_u64le(std::uint8_t* w, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *w++ = static_cast<std::uint8_t>(v >> (8 * i));
  return w;
}

/// Appends the WAVELET_RESIDUAL coding of `values` and returns true only
/// when it is strictly smaller than FLOAT64; otherwise leaves `out`
/// untouched.
bool try_encode_wavelet(std::vector<std::uint8_t>& out, std::span<const double> values) {
  const std::size_t n = values.size();
  // The solver's decomposition depth, capped by what n admits.
  const int levels = std::min(cs::FistaConfig{}.dwt_levels, dsp::dwt_max_levels(n));
  if (levels < 1 || n > kMaxWindowSamples) return false;
  auto& s = wavelet_scratch();
  s.ensure(n);
  const std::span<double> coeffs(s.coeffs.data(), n);
  dsp::dwt_forward_into(values, levels, coeffs, s.dwt);
  double peak = 0.0;
  for (double c : coeffs) {
    if (!std::isfinite(c)) return false;
    peak = std::max(peak, std::fabs(c));
  }
  const double floor = std::ldexp(peak, kKeepFloorExponent);
  std::size_t kept = 0;
  for (double& c : coeffs) {
    if (std::fabs(c) > floor) {
      ++kept;
    } else {
      c = 0.0;  // What the decoder puts at an unset bitmap position.
    }
  }
  // FLOAT64 spends 8n bytes after the shared coding byte and count; give
  // up before the inverse DWT when even 1-byte residuals could not win.
  const std::size_t bitmap_bytes = (n + 7) / 8;
  const std::size_t float64_bytes = 8 * n;
  if (1 + bitmap_bytes + 8 * kept + n >= float64_bytes) return false;
  dsp::dwt_inverse_into(coeffs, levels, s.prediction, s.dwt);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(s.prediction[i])) return false;
  }

  // Written through a cursor into the worst case, then trimmed:
  // byte-at-a-time push_back would cost more than both DWTs.
  const std::size_t start = out.size();
  out.resize(start + wavelet_worst_bytes(n, kept));
  std::uint8_t* w = out.data() + start;
  *w++ = static_cast<std::uint8_t>(ValueCoding::kWaveletResidual);
  w = write_varint(w, n);
  const std::uint8_t* body = w;
  *w++ = static_cast<std::uint8_t>(levels);
  for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
    std::uint8_t bits = 0;
    for (std::size_t b = 0; b < 8 && 8 * byte + b < n; ++b) {
      if (coeffs[8 * byte + b] != 0.0) bits |= static_cast<std::uint8_t>(1u << b);
    }
    *w++ = bits;
  }
  for (double c : coeffs) {
    if (c != 0.0) w = write_u64le(w, double_bits(c));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t d = double_bits(values[i]) - double_bits(s.prediction[i]);
    w = write_varint(w, zigzag(d));
  }
  const bool smaller = static_cast<std::size_t>(w - body) < float64_bytes;
  out.resize(smaller ? static_cast<std::size_t>(w - out.data()) : start);
  return smaller;
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
  // 8 bytes per kept coefficient, then at least one byte per residual.
  if (kept > r.remaining() / 8 || r.remaining() - 8 * kept < n) return false;
  auto& s = wavelet_scratch();
  s.ensure(n);
  for (std::size_t i = 0; i < n; ++i) {
    double c = 0.0;
    if ((bitmap[i / 8] >> (i % 8)) & 1u) {
      c = r.f64le();
      if (!std::isfinite(c)) return false;
    }
    s.coeffs[i] = c;
  }
  out.resize(n);
  dsp::dwt_inverse_into({s.coeffs.data(), n}, levels, out, s.dwt);
  for (double& v : out) {
    const std::uint64_t z = r.varint();
    if (!r.ok() || !std::isfinite(v)) return false;
    v = std::bit_cast<double>(double_bits(v) + unzigzag(z));
  }
  return true;
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
  out.patient_id = static_cast<std::uint32_t>(r.varint());
  out.window_index = static_cast<std::uint32_t>(r.varint());
  out.matrix_seed = r.varint();
  // The shape is checked at full width, before narrowing to the window's
  // u32 fields, so an oversized varint cannot wrap into a valid shape.
  const std::uint64_t n = r.varint();
  const std::uint64_t d = r.varint();
  out.window_samples = static_cast<std::uint32_t>(n);
  out.ones_per_column = static_cast<std::uint32_t>(d);
  out.priority = static_cast<cs::WindowPriority>(r.u8());
  out.route_tag = static_cast<std::uint32_t>(r.varint());
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
                           wavelet_worst_bytes(result.signal.size(), result.signal.size());
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
  out.patient_id = static_cast<std::uint32_t>(r.varint());
  out.window_index = static_cast<std::uint32_t>(r.varint());
  out.priority = static_cast<cs::WindowPriority>(r.u8());
  out.route_tag = static_cast<std::uint32_t>(r.varint());
  out.ticket = r.varint();
  out.snr_db = r.f64le();
  out.iterations = static_cast<int>(r.varint());
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
  patient_id = static_cast<std::uint32_t>(r.varint());
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
  out.patient_id = static_cast<std::uint32_t>(r.varint());
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

void encode_snapshot_request(std::vector<std::uint8_t>& out) {
  frame_end(out, frame_begin(out, FrameType::kSnapshotRequest));
}

void encode_snapshot(std::vector<std::uint8_t>& out, const SnapshotPayload& snap) {
  const std::size_t p = frame_begin(out, FrameType::kSnapshot);
  put_varint(out, snap.submitted);
  put_varint(out, snap.completed);
  put_varint(out, snap.retrieved);
  put_varint(out, snap.shed_routine);
  put_varint(out, snap.shed_urgent);
  put_varint(out, snap.rejected);
  put_varint(out, snap.deadline_violations);
  put_varint(out, snap.unsolved);
  put_varint(out, snap.ready);
  frame_end(out, p);
}

bool decode_snapshot(std::span<const std::uint8_t> payload, SnapshotPayload& out) {
  WireReader r(payload);
  out.submitted = r.varint();
  out.completed = r.varint();
  out.retrieved = r.varint();
  out.shed_routine = r.varint();
  out.shed_urgent = r.varint();
  out.rejected = r.varint();
  out.deadline_violations = r.varint();
  out.unsolved = r.varint();
  out.ready = r.varint();
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
                             std::span<const SubmitBatchAckEntry> entries) {
  const std::size_t p = frame_begin(out, FrameType::kSubmitBatchAck);
  put_varint(out, entries.size());
  for (const auto& entry : entries) {
    put_u8(out, entry.accepted ? 1 : 0);
    if (entry.accepted) put_varint(out, entry.local_ticket);
  }
  frame_end(out, p);
}

bool decode_submit_batch_ack(std::span<const std::uint8_t> payload,
                             std::vector<SubmitBatchAckEntry>& out) {
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
  return r.ok() && r.remaining() == 0;
}

void encode_poll_many(std::vector<std::uint8_t>& out, std::uint32_t max_results) {
  const std::size_t p = frame_begin(out, FrameType::kPollMany);
  put_varint(out, max_results);
  frame_end(out, p);
}

bool decode_poll_many(std::span<const std::uint8_t> payload, std::uint32_t& max_results) {
  WireReader r(payload);
  max_results = static_cast<std::uint32_t>(r.varint());
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

// --- CR-hint frames ----------------------------------------------------------

void encode_cr_hint(std::vector<std::uint8_t>& out, std::uint64_t epoch,
                    std::uint32_t max_entries) {
  const std::size_t p = frame_begin(out, FrameType::kCrHint);
  put_varint(out, epoch);
  put_varint(out, max_entries);
  frame_end(out, p);
}

bool decode_cr_hint(std::span<const std::uint8_t> payload, std::uint64_t& epoch,
                    std::uint32_t& max_entries) {
  WireReader r(payload);
  epoch = r.varint();
  max_entries = static_cast<std::uint32_t>(r.varint());
  return r.ok() && r.remaining() == 0;
}

void encode_cr_hint_ack(std::vector<std::uint8_t>& out, const CrHintAckPayload& ack) {
  const std::size_t p = frame_begin(out, FrameType::kCrHintAck);
  put_varint(out, ack.epoch);
  put_varint(out, ack.advisory_cr_centi);
  put_varint(out, ack.entries.size());
  for (const auto& entry : ack.entries) {
    put_varint(out, entry.patient_id);
    put_varint(out, entry.cr_centi);
  }
  frame_end(out, p);
}

bool decode_cr_hint_ack(std::span<const std::uint8_t> payload, CrHintAckPayload& out) {
  WireReader r(payload);
  out.epoch = r.varint();
  out.advisory_cr_centi = static_cast<std::uint32_t>(r.varint());
  const std::uint64_t count = r.varint();
  if (!r.ok() || count > r.remaining() / 2) return false;  // >= 2 bytes per entry.
  out.entries.clear();
  out.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CrHintEntry entry;
    entry.patient_id = static_cast<std::uint32_t>(r.varint());
    entry.cr_centi = static_cast<std::uint32_t>(r.varint());
    out.entries.push_back(entry);
  }
  return r.ok() && r.remaining() == 0;
}

// --- Health probe ------------------------------------------------------------

void encode_health(std::vector<std::uint8_t>& out, std::uint64_t nonce) {
  const std::size_t p = frame_begin(out, FrameType::kHealth);
  put_varint(out, nonce);
  frame_end(out, p);
}

bool decode_health(std::span<const std::uint8_t> payload, std::uint64_t& nonce) {
  WireReader r(payload);
  nonce = r.varint();
  return r.ok() && r.remaining() == 0;
}

void encode_health_ack(std::vector<std::uint8_t>& out, const HealthAckPayload& ack) {
  const std::size_t p = frame_begin(out, FrameType::kHealthAck);
  put_varint(out, ack.nonce);
  put_varint(out, ack.unsolved);
  put_varint(out, ack.ready);
  frame_end(out, p);
}

bool decode_health_ack(std::span<const std::uint8_t> payload, HealthAckPayload& out) {
  WireReader r(payload);
  out.nonce = r.varint();
  out.unsolved = r.varint();
  out.ready = r.varint();
  return r.ok() && r.remaining() == 0;
}

}  // namespace wbsn::net
