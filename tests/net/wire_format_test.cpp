// wbsn-wire v8 codec tests: CRC vectors, varint properties, value-coding
// round trips (including the bit-exactness edge cases the fixed-point
// fallback exists for), whole-frame round trips for every payload,
// malformed-input and hostile-shape rejection, and byte-for-byte replay of the committed
// golden frames under tests/net/golden/ (the normative fixtures of
// docs/WIRE_FORMAT.md — if an encoder change shifts a single byte, the
// golden test fails and the spec must be revised deliberately).
//
// Regenerating goldens after an intentional format change:
//   WBSN_REGEN_GOLDEN=1 ./net_wire_format_test
// then commit the rewritten .bin files together with the spec update.

#include "net/wire_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "cs/fista.hpp"
#include "cs/pipeline.hpp"
#include "cs/sensing_matrix.hpp"
#include "dsp/wavelet.hpp"
#include "host/payload_pool.hpp"
#include "kern/backend.hpp"
#include "net/crc32c.hpp"
#include "sig/adc.hpp"
#include "sig/ecg_synth.hpp"
#include "wavelet_spec.hpp"

namespace wbsn::net {
namespace {

std::vector<std::uint8_t> encode_one(const auto& encode_fn) {
  std::vector<std::uint8_t> buf;
  encode_fn(buf);
  return buf;
}

FrameView must_peek(const std::vector<std::uint8_t>& buf) {
  FrameView view;
  EXPECT_EQ(peek_frame(buf, view), FrameStatus::kOk);
  EXPECT_EQ(view.frame_bytes, buf.size());
  return view;
}

TEST(Crc32c, MatchesRfc3720Vector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = kCrc32cInit;
    state = crc32c_update(state, data.data(), split);
    state = crc32c_update(state, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c_finish(state), crc32c(data.data(), data.size()));
  }
}

TEST(Crc32c, HardwareMatchesTable) {
  // The dispatched path (the crc32 instruction where the CPU has SSE4.2)
  // against the portable table path.  Without SSE4.2 both sides are the
  // table, and the RFC vector below is what still checks it.
  const char* vector = "123456789";
  EXPECT_EQ(crc32c_finish(detail::crc32c_update_table(kCrc32cInit, vector, 9)), 0xE3069283u);
  EXPECT_EQ(crc32c_finish(crc32c_update(kCrc32cInit, vector, 9)), 0xE3069283u);
  if (!detail::crc32c_hardware()) {
    std::printf("note: no SSE4.2 on this CPU; only the table path ran\n");
  }

  // Every length 0-300 at every alignment 0-7: covers the 8-byte loop,
  // the byte tail, and unaligned word loads.
  std::mt19937_64 rng(0xC3C32Cu);
  std::vector<std::uint8_t> buf(8 + 300);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32c_update(kCrc32cInit, p, len),
                detail::crc32c_update_table(kCrc32cInit, p, len))
          << "offset " << offset << " length " << len;
    }
  }

  // Streaming: random split points, each span through the dispatched
  // path, must equal one table pass over the whole buffer.
  std::vector<std::uint8_t> big(4096 + 13);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = detail::crc32c_update_table(kCrc32cInit, big.data(), big.size());
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t state = kCrc32cInit;
    std::size_t at = 0;
    while (at < big.size()) {
      const std::size_t span = std::min<std::size_t>(rng() % 97, big.size() - at);
      state = crc32c_update(state, big.data() + at, span);
      at += span;
    }
    ASSERT_EQ(state, whole) << "trial " << trial;
  }
}

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xFFFFFFFFull,
                                  0x100000000ull,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    WireReader r(buf);
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Varint, RejectsOverlongEncoding) {
  // 11 continuation bytes can never terminate a u64.
  std::vector<std::uint8_t> buf(11, 0x80);
  WireReader r(buf);
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(ValueCoding, FixedPointGridShipsFixed16) {
  const double scale = 0.125;
  std::vector<double> values;
  for (int i = -100; i <= 100; ++i) values.push_back(i * scale);
  std::vector<std::uint8_t> buf;
  encode_values(buf, values, WireEncodeOptions{scale});
  EXPECT_EQ(static_cast<ValueCoding>(buf[0]), ValueCoding::kFixed16);
  // 2 bytes/sample + coding byte + scale + count varint.
  EXPECT_LT(buf.size(), values.size() * 3);
  WireReader r(buf);
  std::vector<double> decoded;
  ASSERT_TRUE(decode_values(r, decoded));
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(std::memcmp(decoded.data(), values.data(), values.size() * sizeof(double)), 0);
}

TEST(ValueCoding, WideGridFallsBackToFixed32ThenFloat64) {
  const double scale = 1.0;
  // Beyond i16 range but on the grid: fixed32.
  std::vector<double> wide{40000.0, -40000.0, 1e9};
  std::vector<std::uint8_t> buf;
  encode_values(buf, wide, WireEncodeOptions{scale});
  EXPECT_EQ(static_cast<ValueCoding>(buf[0]), ValueCoding::kFixed32);
  WireReader r32(buf);
  std::vector<double> decoded;
  ASSERT_TRUE(decode_values(r32, decoded));
  EXPECT_EQ(std::memcmp(decoded.data(), wide.data(), wide.size() * sizeof(double)), 0);

  // Off the grid entirely: float64, still bit-exact.
  std::vector<double> off{0.1, 2.7182818, -3.14159};
  buf.clear();
  encode_values(buf, off, WireEncodeOptions{scale});
  EXPECT_EQ(static_cast<ValueCoding>(buf[0]), ValueCoding::kFloat64);
  WireReader rf(buf);
  ASSERT_TRUE(decode_values(rf, decoded));
  EXPECT_EQ(std::memcmp(decoded.data(), off.data(), off.size() * sizeof(double)), 0);
}

TEST(ValueCoding, NonFiniteAndNegativeZeroNeverQuantize) {
  // −0.0 quantizes to +0.0 and NaN/inf don't quantize at all: all must
  // force the float64 fallback so decode is bitwise-identical.
  const std::vector<double> tricky{-0.0, std::numeric_limits<double>::quiet_NaN(),
                                   std::numeric_limits<double>::infinity(), 1.0};
  std::vector<std::uint8_t> buf;
  encode_values(buf, tricky, WireEncodeOptions{1.0});
  EXPECT_EQ(static_cast<ValueCoding>(buf[0]), ValueCoding::kFloat64);
  WireReader r(buf);
  std::vector<double> decoded;
  ASSERT_TRUE(decode_values(r, decoded));
  ASSERT_EQ(decoded.size(), tricky.size());
  EXPECT_EQ(std::memcmp(decoded.data(), tricky.data(), tricky.size() * sizeof(double)), 0);
  EXPECT_TRUE(std::signbit(decoded[0]));
  EXPECT_TRUE(std::isnan(decoded[1]));
}

TEST(ValueCoding, NegativeZeroAloneNeverQuantizes) {
  // No NaN beside it to force the fallback: the −0.0 itself must, since
  // its integer 0 decodes as +0.0.  At scale 1, at the ADC scale, and on
  // the FIXED32 path.
  const double adc = cs::measurement_scale_mv(sig::AdcConfig{});
  const std::vector<std::pair<std::vector<double>, double>> cases{
      {{-0.0, 1.0}, 1.0}, {{3 * adc, -0.0, -adc}, adc}, {{40000.0, -0.0}, 1.0}};
  for (const auto& [values, scale] : cases) {
    std::vector<std::uint8_t> buf;
    encode_values(buf, values, WireEncodeOptions{scale});
    EXPECT_EQ(static_cast<ValueCoding>(buf[0]), ValueCoding::kFloat64) << scale;
    WireReader r(buf);
    std::vector<double> decoded;
    ASSERT_TRUE(decode_values(r, decoded));
    ASSERT_EQ(decoded.size(), values.size());
    EXPECT_EQ(std::memcmp(decoded.data(), values.data(), values.size() * sizeof(double)), 0);
  }
}

TEST(ValueCoding, FixedCodingsWriteTheSpecLayout) {
  // coding, scale (f64), count (varint), then little-endian integers.
  std::vector<std::uint8_t> buf;
  encode_values(buf, std::vector<double>{-2.0, 0.5, 1.0}, WireEncodeOptions{0.5});
  std::vector<std::uint8_t> expect{static_cast<std::uint8_t>(ValueCoding::kFixed16)};
  put_f64le(expect, 0.5);
  put_varint(expect, 3);
  expect.insert(expect.end(), {0xFC, 0xFF, 0x01, 0x00, 0x02, 0x00});  // -4, 1, 2
  EXPECT_EQ(buf, expect);

  buf.clear();
  encode_values(buf, std::vector<double>{70000.0, -1.0}, WireEncodeOptions{1.0});
  expect = {static_cast<std::uint8_t>(ValueCoding::kFixed32)};
  put_f64le(expect, 1.0);
  put_varint(expect, 2);
  expect.insert(expect.end(), {0x70, 0x11, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF});  // 70000, -1
  EXPECT_EQ(buf, expect);

  // A value off the grid after one that fits rolls the buffer back to
  // what it held, then appends FLOAT64.
  buf = {0xAA};
  encode_values(buf, std::vector<double>{1.0, 0.3}, WireEncodeOptions{1.0});
  ASSERT_EQ(buf.size(), 1u + 1 + 1 + 16);
  EXPECT_EQ(buf[0], 0xAA);
  EXPECT_EQ(static_cast<ValueCoding>(buf[1]), ValueCoding::kFloat64);
}

host::CompressedWindow sample_window() {
  host::CompressedWindow w;
  w.patient_id = 42;
  w.window_index = 7;
  w.matrix_seed = 0xC0FFEE;
  w.window_samples = 8;
  w.ones_per_column = 4;
  w.priority = cs::WindowPriority::kUrgent;
  w.route_tag = 3;
  const double scale = 0.0048828125;  // 2.5 mV / 512: an ADC-like LSB.
  for (int i = 0; i < 6; ++i) w.measurements.push_back((i - 3) * scale);
  return w;
}

host::WindowResult sample_result() {
  host::WindowResult r;
  r.patient_id = 42;
  r.window_index = 7;
  r.priority = cs::WindowPriority::kUrgent;
  r.route_tag = 3;
  r.ticket = 12345;
  r.signal = {0.25, -0.5, 0.333333333333, 1e-9, -0.0, 2.5};
  r.snr_db = 21.7;
  r.iterations = 83;
  r.latency_ms = 1.25;
  r.e2e_ms = 4.5;
  return r;
}

/// One window through a SUBMIT_BATCH frame: encode, peek, decode.
host::CompressedWindow batch_round_trip(const host::CompressedWindow& w, std::uint8_t flags,
                                        const WireEncodeOptions& opts) {
  std::vector<std::uint8_t> buf;
  encode_submit_batch(buf, {&w, 1}, flags, opts);
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kSubmitBatch);
  std::uint8_t decoded_flags = 0;
  std::vector<host::CompressedWindow> decoded;
  EXPECT_TRUE(decode_submit_batch(view.payload, decoded_flags, decoded, nullptr));
  EXPECT_EQ(decoded_flags, flags);
  EXPECT_EQ(decoded.size(), 1u);
  return decoded.empty() ? host::CompressedWindow{} : std::move(decoded.front());
}

/// One result through a RESULT_BATCH frame.
host::WindowResult result_round_trip(const host::WindowResult& res) {
  std::vector<std::uint8_t> bodies;
  encode_result_entry(bodies, res, WireEncodeOptions{});
  const auto buf = encode_one([&](auto& b) { encode_result_batch(b, bodies, 1); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kResultBatch);
  std::vector<host::WindowResult> decoded;
  EXPECT_TRUE(decode_result_batch(view.payload, decoded, nullptr));
  EXPECT_EQ(decoded.size(), 1u);
  return decoded.empty() ? host::WindowResult{} : std::move(decoded.front());
}

// --- WAVELET_RESIDUAL --------------------------------------------------------

/// A FISTA reconstruction of one n-sample window of a seeded low-noise
/// ECG record, sensed at `cr_percent` with the pipeline's d = 4 operator.
std::vector<double> fista_signal(std::size_t n, double cr_percent, std::uint64_t seed,
                                 const cs::FistaConfig& cfg = {}) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 20}};
  synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
  sig::Rng rng(seed);
  const auto record = sig::synthesize_ecg(synth, rng);
  const std::vector<double> window(record.leads[0].begin(),
                                   record.leads[0].begin() + static_cast<long>(n));
  sig::Rng matrix_rng(seed + 1);
  const auto phi = cs::SensingMatrix::make_sparse_binary(cs::rows_for_cr(cr_percent, n), n,
                                                         4, matrix_rng);
  const auto y = cs::encode_window(phi, window, sig::AdcConfig{}).measurements;
  return cs::fista_reconstruct(phi, y, cfg).signal;
}

/// The wire-bound workload's solve: one iteration, no debias.
cs::FistaConfig one_iteration() {
  cs::FistaConfig cfg;
  cfg.max_iterations = 1;
  cfg.debias_iterations = 0;
  return cfg;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// encode_signal_values -> decode_values; returns the coding written and
/// checks the whole body was consumed and the bits survived.
ValueCoding signal_round_trip(const std::vector<double>& values) {
  std::vector<std::uint8_t> buf;
  const ValueCoding coding = encode_signal_values(buf, values);
  EXPECT_EQ(static_cast<ValueCoding>(buf.at(0)), coding);
  WireReader r(buf);
  std::vector<double> decoded;
  EXPECT_TRUE(decode_values(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(same_bits(decoded, values)) << values.size() << " samples";
  // Never larger than FLOAT64 (coding byte + count varint + 8n).
  std::vector<std::uint8_t> float64;
  encode_values(float64, values, WireEncodeOptions{});
  EXPECT_LE(buf.size(), float64.size());
  return coding;
}

TEST(ValueCoding, WaveletResidualRoundTripsFistaOutputsBitExactly) {
  for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(signal_round_trip(fista_signal(n, 50.0, 100 + n)),
              ValueCoding::kWaveletResidual);
    signal_round_trip(fista_signal(n, 75.0, 200 + n, one_iteration()));
  }
}

TEST(ValueCoding, WaveletResidualRoundTripsAdversarialVectors) {
  const double nan_payload = std::bit_cast<double>(0x7FF8000000001234ull);
  const double signaling_nan = std::bit_cast<double>(0x7FF0000000000001ull);
  const double negative_nan = std::bit_cast<double>(0xFFF80000DEADBEEFull);
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double max_subnormal = std::bit_cast<double>(0x000FFFFFFFFFFFFFull);
  const auto smooth = fista_signal(512, 50.0, 7);

  std::vector<std::vector<double>> cases;
  cases.push_back(std::vector<double>(512, 0.0));           // All zero.
  cases.push_back(std::vector<double>(512, -0.0));          // All negative zero.
  std::vector<double> spike(512, 0.0);
  spike[300] = 1.0;
  cases.push_back(spike);                                   // Single spike.
  for (const double special : {nan_payload, signaling_nan, negative_nan, inf, -inf, -0.0,
                               denorm, max_subnormal, -max_subnormal}) {
    auto v = smooth;
    v[17] = special;
    cases.push_back(v);                                     // One special in real data.
  }
  std::vector<double> subnormals(256);
  for (std::size_t i = 0; i < subnormals.size(); ++i) {
    subnormals[i] = static_cast<double>(i % 7) * denorm * (i % 2 ? -1.0 : 1.0);
  }
  cases.push_back(subnormals);
  std::vector<double> dynamic(256);
  for (std::size_t i = 0; i < dynamic.size(); ++i) {
    dynamic[i] = (i % 3 == 0 ? 1e300 : 1e-300) * std::sin(0.1 * static_cast<double>(i));
  }
  cases.push_back(dynamic);                                 // 1e±300 in one vector.
  cases.push_back(std::vector<double>(64, std::numeric_limits<double>::max()));
  cases.push_back(std::vector<double>(smooth.begin(), smooth.begin() + 511));  // Odd n.
  cases.push_back(std::vector<double>(smooth.begin(), smooth.begin() + 12));   // Shallow.
  cases.push_back(std::vector<double>(smooth.begin(), smooth.begin() + 4));    // Minimum.
  cases.push_back(std::vector<double>(smooth.begin(), smooth.begin() + 2));
  cases.push_back({});
  std::vector<ValueCoding> codings;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    codings.push_back(signal_round_trip(cases[i]));
  }
  // Where the coding applies it wins on these, exact residuals and all;
  // non-finite input (cases 3-7: the NaNs and both infinities) never
  // reaches it.
  EXPECT_EQ(codings[0], ValueCoding::kWaveletResidual);
  EXPECT_EQ(codings[2], ValueCoding::kWaveletResidual);
  for (std::size_t i = 3; i <= 7; ++i) EXPECT_EQ(codings[i], ValueCoding::kFloat64) << i;
}

/// Inverse DWT of a sparse random coefficient vector, every coefficient of
/// `scale` magnitude: the shape the coding is built for, at any length the
/// transform admits.  `first`/`last` bound where the details may sit.
std::vector<double> sparse_signal(std::size_t n, std::uint64_t seed, double scale = 1.0,
                                  std::size_t first = 0, std::size_t last = SIZE_MAX) {
  const int levels = std::min(cs::FistaConfig{}.dwt_levels, dsp::dwt_max_levels(n));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(-scale, scale);
  std::vector<double> c(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool approx = i < (n >> levels);
    if (approx || (i >= first && i < last && rng() % 6 == 0)) c[i] = uniform(rng);
  }
  if (first > 0) std::fill(c.begin(), c.begin() + static_cast<long>(n >> levels), 0.0);
  return dsp::dwt_inverse(c, levels);
}

std::vector<kern::Backend> machine_backends() {
  std::vector<kern::Backend> backends{kern::Backend::kScalar};
  if (kern::avx2_supported()) backends.push_back(kern::Backend::kAvx2);
  return backends;
}

/// Encodes `values` on every kern backend this machine has and decodes
/// each result on every backend: one set of bytes, the bits restored.  A
/// WAVELET_RESIDUAL vector is also decoded by the spec decoder, and the
/// spec writer must rebuild its very bytes.  Returns the parsed body.
spec::Body round_trip_everywhere(const std::vector<double>& values, ValueCoding expect) {
  const kern::Backend original = kern::active_backend();
  std::vector<std::uint8_t> first;
  for (const kern::Backend encoder : machine_backends()) {
    EXPECT_TRUE(kern::set_backend(encoder));
    std::vector<std::uint8_t> buf;
    EXPECT_EQ(encode_signal_values(buf, values), expect);
    if (first.empty()) first = buf;
    EXPECT_EQ(buf, first) << "encoded on backend " << static_cast<int>(encoder);
    for (const kern::Backend decoder : machine_backends()) {
      kern::set_backend(decoder);
      WireReader r(buf);
      std::vector<double> decoded;
      EXPECT_TRUE(decode_values(r, decoded));
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_TRUE(same_bits(decoded, values)) << "decoded on backend " << static_cast<int>(decoder);
    }
  }
  kern::set_backend(original);
  spec::Body body;
  if (expect == ValueCoding::kWaveletResidual && !first.empty()) {
    spec::Reader r{first};
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(ValueCoding::kWaveletResidual));
    std::vector<double> decoded;
    EXPECT_TRUE(spec::decode_wavelet_residual(r, decoded, &body));
    EXPECT_EQ(r.pos, first.size());
    EXPECT_TRUE(same_bits(decoded, values));
    EXPECT_EQ(spec::write(body), first);
  }
  return body;
}

std::size_t escaped_residuals(const spec::Body& body) {
  return static_cast<std::size_t>(std::count_if(body.residuals.begin(), body.residuals.end(),
                                                [](const spec::Code& c) { return c.escaped; }));
}

TEST(ValueCoding, WaveletResidualRoundTripsAtEveryLengthOnEveryBackend) {
  // From the shallowest vector (8 samples, 2 levels) to the window-shape
  // limit, lengths that are and are not multiples of the 16-sample block.
  for (const std::size_t n : {8u, 12u, 16u, 24u, 40u, 72u, 100u, 136u, 248u, 504u, 512u, 520u,
                              1000u, 2056u, 4096u}) {
    SCOPED_TRACE(n);
    const auto body = round_trip_everywhere(sparse_signal(n, n), ValueCoding::kWaveletResidual);
    EXPECT_EQ(body.block_params.size(), (n + 15) / 16);
  }
}

TEST(ValueCoding, WaveletResidualEdgeCasesRoundTripOnEveryBackend) {
  // ±0: an all +0 vector keeps no coefficient; −0.0 inside real data.
  auto body = round_trip_everywhere(std::vector<double>(512, 0.0), ValueCoding::kWaveletResidual);
  EXPECT_TRUE(body.coefficients.empty());
  auto zeros = sparse_signal(512, 3);
  zeros[40] = -0.0;
  zeros[41] = 0.0;
  round_trip_everywhere(zeros, ValueCoding::kWaveletResidual);

  // Subnormal coefficients: biased exponent 0 travels like any other.
  std::vector<double> subnormal = sparse_signal(512, 4, 1e-310);
  body = round_trip_everywhere(subnormal, ValueCoding::kWaveletResidual);
  EXPECT_FALSE(body.coefficients.empty());
  EXPECT_EQ(body.e_max, 0u);

  // Details in the first quarter only: the prediction is exactly zero
  // further on, so whole residual blocks are zero and take parameter 0.
  body = round_trip_everywhere(sparse_signal(512, 5, 1.0, 256, 320),
                               ValueCoding::kWaveletResidual);
  std::size_t zero_blocks = 0;
  for (std::size_t b = 0; b < body.block_params.size(); ++b) {
    bool zero = true;
    for (std::size_t i = 16 * b; i < 16 * b + 16; ++i) zero &= body.residuals[i].value == 0;
    zero_blocks += zero && body.block_params[b] == 0;
  }
  EXPECT_GE(zero_blocks, 8u);

  // One huge coefficient beside tiny ones: where its Db4 wave crosses
  // zero the samples are small but the prediction is off by many of their
  // ULPs, so some residual takes the escape.
  auto spike = sparse_signal(512, 6, 1e-3);
  {
    std::vector<double> c(512, 0.0);
    c[300] = 1e6;
    const auto wave = dsp::dwt_inverse(c, 5);
    for (std::size_t i = 0; i < spike.size(); ++i) spike[i] += wave[i];
  }
  body = round_trip_everywhere(spike, ValueCoding::kWaveletResidual);
  EXPECT_GT(escaped_residuals(body), 0u);
}

TEST(ValueCoding, WaveletResidualEncodedOnAvx2DecodesOnScalar) {
  if (!kern::avx2_supported()) GTEST_SKIP() << "no AVX2 on this machine";
  const kern::Backend original = kern::active_backend();
  std::vector<std::vector<double>> signals;
  for (const std::size_t n : {128u, 512u, 1024u}) signals.push_back(fista_signal(n, 50.0, n));
  ASSERT_TRUE(kern::set_backend(kern::Backend::kAvx2));
  std::vector<std::vector<std::uint8_t>> avx2_bodies;
  for (const auto& s : signals) {
    avx2_bodies.emplace_back();
    EXPECT_EQ(encode_signal_values(avx2_bodies.back(), s), ValueCoding::kWaveletResidual);
  }
  ASSERT_TRUE(kern::set_backend(kern::Backend::kScalar));
  for (std::size_t i = 0; i < signals.size(); ++i) {
    WireReader r(avx2_bodies[i]);
    std::vector<double> decoded;
    ASSERT_TRUE(decode_values(r, decoded));
    EXPECT_TRUE(same_bits(decoded, signals[i])) << i;
    std::vector<std::uint8_t> scalar_body;
    encode_signal_values(scalar_body, signals[i]);
    EXPECT_EQ(scalar_body, avx2_bodies[i]) << i;  // Same bytes from either backend.
  }
  kern::set_backend(original);
}

TEST(ValueCoding, SteadyResultsShipWaveletAndWireBoundResultsShipFloat64) {
  auto result = sample_result();
  result.signal = fista_signal(512, 50.0, 11);
  std::vector<std::uint8_t> staging;
  EXPECT_EQ(encode_result_entry(staging, result, WireEncodeOptions{}),
            ValueCoding::kWaveletResidual);
  // A converged window's coefficients are sparse: well under the 8n bytes
  // of FLOAT64.
  EXPECT_LT(staging.size(), 8u * 512u * 4u / 5u);
  EXPECT_TRUE(same_bits(result_round_trip(result).signal, result.signal));

  result.signal = fista_signal(128, 75.0, 22, one_iteration());
  staging.clear();
  EXPECT_EQ(encode_result_entry(staging, result, WireEncodeOptions{}), ValueCoding::kFloat64);
  EXPECT_TRUE(same_bits(result_round_trip(result).signal, result.signal));
}

/// A hand-built WAVELET_RESIDUAL body: `count` samples at `levels`, the
/// first `kept` coefficients set to `coefficient` (which must be finite
/// and non-zero), every residual zero, every Rice parameter 0.
spec::Body hand_body(std::uint64_t count, std::uint8_t levels, std::size_t kept,
                     double coefficient = 1.5) {
  spec::Body b;
  b.count = count;
  b.levels = levels;
  b.bitmap.assign((count + 7) / 8, 0);
  for (std::size_t i = 0; i < kept; ++i) b.bitmap[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  const auto bits = std::bit_cast<std::uint64_t>(coefficient);
  b.e_max = bits >> 52 & 0x7FF;
  for (std::size_t i = 0; i < kept; ++i) {
    b.coefficients.push_back({bits >> 63, {0, false}, bits & ((std::uint64_t{1} << 52) - 1)});
  }
  b.block_params.assign((count + 15) / 16, 0);
  b.residuals.assign(count, spec::Code{});
  return b;
}

bool decodes(const std::vector<std::uint8_t>& buf) {
  WireReader r(buf);
  std::vector<double> out;
  return decode_values(r, out) && r.remaining() == 0;
}

std::vector<std::uint8_t> without_last(std::vector<std::uint8_t> buf, std::size_t bytes) {
  buf.resize(buf.size() - bytes);
  return buf;
}

TEST(ValueCoding, HostileWaveletBodiesAreMalformedNotOverreads) {
  // The well-formed baselines the mutations start from.
  const auto base = hand_body(512, 5, 3);
  ASSERT_TRUE(decodes(spec::write(base)));
  ASSERT_TRUE(decodes(spec::write(hand_body(12, 2, 12))));
  ASSERT_TRUE(decodes(spec::write(hand_body(16, 2, 0))));  // No coefficient header.

  // Levels: zero, or deeper than the count admits (512 admits 8; 12
  // admits 2, and 12 is no multiple of 2^3).
  EXPECT_FALSE(decodes(spec::write(hand_body(512, 0, 3))));
  EXPECT_FALSE(decodes(spec::write(hand_body(512, 9, 3))));
  EXPECT_FALSE(decodes(spec::write(hand_body(12, 3, 3))));
  EXPECT_FALSE(decodes(spec::write(hand_body(6, 2, 1))));
  EXPECT_FALSE(decodes(spec::write(hand_body(0, 1, 0))));
  // Count beyond the window-shape limit.
  EXPECT_FALSE(decodes(spec::write(hand_body(2 * kMaxWindowSamples, 5, 0))));
  // Truncated bitmap: coding, count (2 bytes), levels, then 10 of 64.
  EXPECT_FALSE(decodes(without_last(spec::write(base), spec::write(base).size() - 14)));
  // Set padding bits past `count` in the last bitmap byte.
  auto padded = hand_body(12, 2, 1);
  padded.bitmap[1] |= 0x80;
  EXPECT_FALSE(decodes(spec::write(padded)));

  // The stream: truncated by a byte, or padded with a set bit.
  EXPECT_FALSE(decodes(without_last(spec::write(base), 1)));
  auto pad = base;
  pad.pad = 1;
  EXPECT_FALSE(decodes(spec::write(pad)));
  // A residual parameter above 56, an exponent parameter above 10.
  for (const std::uint64_t k : {57u, 63u}) {
    auto bad = base;
    bad.block_params[3] = k;
    EXPECT_FALSE(decodes(spec::write(bad))) << k;
  }
  auto accept = base;
  accept.block_params[3] = 56;
  accept.exponent_param = 10;
  EXPECT_TRUE(decodes(spec::write(accept)));
  for (const std::uint64_t k : {11u, 15u}) {
    auto bad = base;
    bad.exponent_param = k;
    EXPECT_FALSE(decodes(spec::write(bad))) << k;
  }
  // An escape whose 64 raw bits run past the end (the last residual
  // escapes; cut inside its raw bits).
  auto escape = base;
  escape.residuals.back() = {5, true};
  ASSERT_TRUE(decodes(spec::write(escape)));
  EXPECT_FALSE(decodes(without_last(spec::write(escape), 2)));
  // A run of zeros that ends with the data, short of the escape.
  auto run = base;
  run.residuals.back() = {31, false};
  EXPECT_FALSE(decodes(without_last(spec::write(run), 1)));
  // An exponent offset past e_max (a negative exponent).
  auto below = base;
  below.coefficients[1].offset.value = below.e_max + 1;
  EXPECT_FALSE(decodes(spec::write(below)));
  // e_max 2047: the coefficient it puts at offset 0 would be non-finite.
  auto non_finite = base;
  non_finite.e_max = 2047;
  non_finite.coefficients[0].offset.value = 0;
  non_finite.coefficients[1].offset.value = 1000;
  non_finite.coefficients[2].offset.value = 1000;
  EXPECT_FALSE(decodes(spec::write(non_finite)));
  // Finite coefficients whose inverse DWT overflows.
  EXPECT_FALSE(decodes(spec::write(hand_body(16, 2, 16, std::numeric_limits<double>::max()))));

  // Every strict prefix of a real body is malformed, and a trailing byte
  // after the signal breaks the RESULT_BATCH it rides in.
  auto result = sample_result();
  result.signal = fista_signal(256, 50.0, 5);
  std::vector<std::uint8_t> real;
  ASSERT_EQ(encode_signal_values(real, result.signal), ValueCoding::kWaveletResidual);
  for (std::size_t len = 0; len < real.size(); ++len) {
    WireReader r({real.data(), len});
    std::vector<double> out;
    EXPECT_FALSE(decode_values(r, out)) << "prefix " << len;
  }
  std::vector<std::uint8_t> bodies;
  ASSERT_EQ(encode_result_entry(bodies, result, WireEncodeOptions{}),
            ValueCoding::kWaveletResidual);
  bodies.push_back(0x00);
  const auto frame = encode_one([&](auto& b) { encode_result_batch(b, bodies, 1); });
  std::vector<host::WindowResult> decoded;
  EXPECT_FALSE(decode_result_batch(must_peek(frame).payload, decoded, nullptr));
}

TEST(ValueCoding, WideRiceCodesNearTheStreamEndMatchTheSpecDecoder) {
  // A 64-bit Rice code (k in [32, 56], quotient 63 - k) that opens the
  // last block, one more code after it.  Once it starts on a byte
  // boundary within the stream's last 15 bytes, the bit reader holds
  // exactly its 64 bits and must consume them all in one step.  The first
  // block's unary codes slide it through every alignment.
  const std::uint64_t low = 0xAB'CDEF'0123'4567ull;
  for (std::uint64_t lead = 0; lead < 8; ++lead) {
    for (unsigned k = 32; k <= 56; ++k) {
      const std::uint64_t remainder_mask = (std::uint64_t{1} << k) - 1;
      for (std::uint64_t last = 0; last < 3; ++last) {
        auto body = hand_body(18, 1, 0);  // Blocks of 16 and 2 samples.
        body.residuals[0].value = lead;
        body.block_params[1] = k;
        body.residuals[16].value = std::uint64_t{63 - k} << k | (low & remainder_mask);
        body.residuals[17].value = last << k | (~low & remainder_mask);
        const auto buf = spec::write(body);
        WireReader r(buf);
        std::vector<double> decoded;
        ASSERT_TRUE(decode_values(r, decoded)) << lead << " " << k << " " << last;
        EXPECT_EQ(r.remaining(), 0u);
        spec::Reader sr{buf};
        sr.u8();
        std::vector<double> expected;
        ASSERT_TRUE(spec::decode_wavelet_residual(sr, expected));
        EXPECT_TRUE(same_bits(decoded, expected)) << lead << " " << k << " " << last;
      }
    }
  }
}

TEST(Frames, SubmitWindowRoundTripsBitExactly) {
  const auto w = sample_window();
  const auto d = batch_round_trip(w, kSubmitFlagBlocking, WireEncodeOptions{0.0048828125});
  EXPECT_EQ(d.patient_id, w.patient_id);
  EXPECT_EQ(d.window_index, w.window_index);
  EXPECT_EQ(d.matrix_seed, w.matrix_seed);
  EXPECT_EQ(d.window_samples, w.window_samples);
  EXPECT_EQ(d.ones_per_column, w.ones_per_column);
  EXPECT_EQ(d.priority, w.priority);
  EXPECT_EQ(d.route_tag, w.route_tag);
  ASSERT_EQ(d.measurements.size(), w.measurements.size());
  EXPECT_EQ(std::memcmp(d.measurements.data(), w.measurements.data(),
                        w.measurements.size() * sizeof(double)),
            0);
  EXPECT_TRUE(d.reference.empty());
}

TEST(Frames, ResultRoundTripsBitExactly) {
  const auto res = sample_result();
  const auto d = result_round_trip(res);
  EXPECT_EQ(d.patient_id, res.patient_id);
  EXPECT_EQ(d.ticket, res.ticket);
  EXPECT_EQ(d.iterations, res.iterations);
  EXPECT_EQ(d.snr_db, res.snr_db);
  EXPECT_EQ(d.latency_ms, res.latency_ms);
  EXPECT_EQ(d.e2e_ms, res.e2e_ms);
  ASSERT_EQ(d.signal.size(), res.signal.size());
  EXPECT_EQ(
      std::memcmp(d.signal.data(), res.signal.data(), res.signal.size() * sizeof(double)), 0);
}

TEST(Frames, RandomizedWindowsRoundTripBitExactly) {
  std::mt19937_64 rng(0xD5EADu);
  std::uniform_real_distribution<double> uniform(-5.0, 5.0);
  for (int iter = 0; iter < 200; ++iter) {
    // Random batches of well-shaped windows: 1 <= m <= n, 1 <= d <= m.
    std::vector<host::CompressedWindow> windows(1 + rng() % 4);
    for (auto& w : windows) {
      w.patient_id = static_cast<std::uint32_t>(rng());
      w.window_index = static_cast<std::uint32_t>(rng());
      w.matrix_seed = rng();
      w.window_samples = 1 + static_cast<std::uint32_t>(rng() % 2048);
      const std::size_t m = 1 + rng() % std::min<std::size_t>(300, w.window_samples);
      w.ones_per_column = 1 + static_cast<std::uint32_t>(rng() % std::min<std::size_t>(8, m));
      w.priority = (rng() & 1) ? cs::WindowPriority::kUrgent : cs::WindowPriority::kRoutine;
      w.route_tag = static_cast<std::uint32_t>(rng() % 4096);
      for (std::size_t i = 0; i < m; ++i) w.measurements.push_back(uniform(rng));
      if (rng() & 1) {
        for (std::size_t i = 0; i < w.window_samples; ++i) w.reference.push_back(uniform(rng));
      }
    }
    // Half the iterations offer a fixed scale the data won't fit: the
    // encoder must fall back and stay bit-exact regardless.
    WireEncodeOptions opts{(rng() & 1) ? 0.001 : 0.0};
    std::vector<std::uint8_t> buf;
    encode_submit_batch(buf, windows, 0, opts);
    const auto view = must_peek(buf);
    std::uint8_t flags = 0;
    std::vector<host::CompressedWindow> decoded;
    ASSERT_TRUE(decode_submit_batch(view.payload, flags, decoded, nullptr));
    ASSERT_EQ(decoded.size(), windows.size());
    for (std::size_t k = 0; k < windows.size(); ++k) {
      const auto& w = windows[k];
      const auto& d = decoded[k];
      ASSERT_EQ(d.measurements.size(), w.measurements.size());
      EXPECT_EQ(std::memcmp(d.measurements.data(), w.measurements.data(),
                            w.measurements.size() * sizeof(double)),
                0);
      ASSERT_EQ(d.reference.size(), w.reference.size());
      if (!w.reference.empty()) {
        EXPECT_EQ(std::memcmp(d.reference.data(), w.reference.data(),
                              w.reference.size() * sizeof(double)),
                  0);
      }
    }
  }
}

TEST(Frames, MaxSizeVarintFieldsRoundTrip) {
  host::CompressedWindow w = sample_window();
  w.patient_id = std::numeric_limits<std::uint32_t>::max();
  w.window_index = std::numeric_limits<std::uint32_t>::max();
  w.matrix_seed = std::numeric_limits<std::uint64_t>::max();
  w.route_tag = std::numeric_limits<std::uint32_t>::max();
  const auto d = batch_round_trip(w, 0xFF, WireEncodeOptions{});
  EXPECT_EQ(d.patient_id, w.patient_id);
  EXPECT_EQ(d.window_index, w.window_index);
  EXPECT_EQ(d.matrix_seed, w.matrix_seed);
  EXPECT_EQ(d.route_tag, w.route_tag);

  std::vector<std::uint8_t> ack;
  encode_submit_batch_ack(
      ack, std::vector<SubmitBatchAckEntry>{{true, std::numeric_limits<std::uint64_t>::max()}});
  std::vector<SubmitBatchAckEntry> entries;
  std::vector<host::WindowResult> results;
  ASSERT_TRUE(decode_submit_batch_ack(must_peek(ack).payload, entries, results, nullptr));
  EXPECT_TRUE(results.empty());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].local_ticket, std::numeric_limits<std::uint64_t>::max());
}

/// A SUBMIT_BATCH payload holding one window body written field by field,
/// so a test can put shapes on the wire that the engine must never see.
std::vector<std::uint8_t> raw_batch_payload(std::uint64_t n, std::uint64_t d,
                                            std::span<const double> measurements,
                                            const std::vector<double>* reference,
                                            std::uint64_t patient_id = 42,
                                            std::uint64_t window_index = 7,
                                            std::uint64_t route_tag = 0) {
  std::vector<std::uint8_t> payload;
  // flags, count, then patient_id, window_index, matrix_seed, n, d,
  // priority and route_tag.
  put_u8(payload, kSubmitFlagBlocking);
  put_varint(payload, 1);
  put_varint(payload, patient_id);
  put_varint(payload, window_index);
  put_varint(payload, 0xC0FFEE);
  put_varint(payload, n);
  put_varint(payload, d);
  put_u8(payload, static_cast<std::uint8_t>(cs::WindowPriority::kRoutine));
  put_varint(payload, route_tag);
  encode_values(payload, measurements, WireEncodeOptions{});
  if (reference == nullptr) {
    encode_values_absent(payload);
  } else {
    encode_values(payload, *reference, WireEncodeOptions{});
  }
  return payload;
}

TEST(Frames, HostileWindowShapesAreMalformed) {
  const auto decodes = [](const std::vector<std::uint8_t>& payload) {
    std::uint8_t flags = 0;
    std::vector<host::CompressedWindow> out;
    return decode_submit_batch(payload, flags, out, nullptr);
  };
  const std::vector<double> m8(8, 0.5);
  const std::vector<double> m1(1, 0.5);
  const std::vector<double> none;
  const std::vector<double> ref16(16, 0.25);
  const std::vector<double> ref15(15, 0.25);

  // Well-shaped edges decode: m == n, d == m, a full-length reference,
  // and the largest window and density the format admits.
  EXPECT_TRUE(decodes(raw_batch_payload(16, 4, m8, nullptr)));
  EXPECT_TRUE(decodes(raw_batch_payload(16, 8, m8, &ref16)));
  EXPECT_TRUE(decodes(raw_batch_payload(8, 8, m8, nullptr)));
  const std::vector<double> m64(kMaxOnesPerColumn, 0.5);
  EXPECT_TRUE(decodes(raw_batch_payload(kMaxWindowSamples, kMaxOnesPerColumn, m64, nullptr)));

  // No measurements, or more measurements than samples.
  EXPECT_FALSE(decodes(raw_batch_payload(16, 1, none, nullptr)));
  EXPECT_FALSE(decodes(raw_batch_payload(4, 1, m8, nullptr)));
  // A window longer than any node emits.
  EXPECT_FALSE(decodes(raw_batch_payload(kMaxWindowSamples + 1, 1, m1, nullptr)));
  EXPECT_FALSE(decodes(raw_batch_payload(std::numeric_limits<std::uint32_t>::max(), 1, m1,
                                         nullptr)));
  // A shape varint past 32 bits must not wrap into a valid u32 shape.
  EXPECT_FALSE(decodes(raw_batch_payload((std::uint64_t{1} << 32) + 16, 4, m8, nullptr)));
  EXPECT_FALSE(decodes(raw_batch_payload(16, (std::uint64_t{1} << 32) + 4, m8, nullptr)));
  // Column density: zero, above m (the sensing-matrix build would never
  // finish placing distinct rows), and above the cap.
  EXPECT_FALSE(decodes(raw_batch_payload(16, 0, m8, nullptr)));
  EXPECT_FALSE(decodes(raw_batch_payload(16, 9, m8, nullptr)));
  const std::vector<double> m100(100, 0.5);
  EXPECT_FALSE(decodes(raw_batch_payload(100, kMaxOnesPerColumn + 1, m100, nullptr)));
  // A reference must be ABSENT or exactly n samples — a coded empty
  // vector is neither.
  EXPECT_FALSE(decodes(raw_batch_payload(16, 4, m8, &ref15)));
  EXPECT_FALSE(decodes(raw_batch_payload(16, 4, m8, &none)));

  // The batch count is bounded by the smallest possible body, not by one
  // byte per entry: 20 payload bytes cannot hold two windows.
  std::vector<std::uint8_t> header{kSubmitFlagBlocking, 2};
  header.resize(22, 0);
  WireReader r(header);
  std::uint8_t flags = 0;
  std::uint64_t count = 0;
  EXPECT_FALSE(decode_submit_batch_header(r, flags, count));
}

// --- 32-bit fields: a varint above UINT32_MAX is malformed, never wrapped
// (an entry with patient id 2^32 + 7 must not decode as patient 7).

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kPastU32 = (std::uint64_t{1} << 32) + 7;

TEST(U32Fields, SubmitBatchRejectsWideIds) {
  const auto decodes = [](const std::vector<std::uint8_t>& payload) {
    std::uint8_t flags = 0;
    std::vector<host::CompressedWindow> out;
    return decode_submit_batch(payload, flags, out, nullptr);
  };
  const std::vector<double> m8(8, 0.5);
  EXPECT_TRUE(decodes(raw_batch_payload(16, 4, m8, nullptr, kU32Max, kU32Max, kU32Max)));
  EXPECT_FALSE(decodes(raw_batch_payload(16, 4, m8, nullptr, kPastU32, 7, 0)));
  EXPECT_FALSE(decodes(raw_batch_payload(16, 4, m8, nullptr, 42, kPastU32, 0)));
  EXPECT_FALSE(decodes(raw_batch_payload(16, 4, m8, nullptr, 42, 7, kPastU32)));
}

TEST(U32Fields, ResultBatchRejectsWideIds) {
  // One RESULT_BATCH entry written field by field: patient_id,
  // window_index, priority, route_tag, ticket, snr, iterations, latency,
  // e2e, signal.  iterations is an int: past INT_MAX is refused too.
  const auto payload = [](std::uint64_t patient_id, std::uint64_t window_index,
                          std::uint64_t route_tag, std::uint64_t iterations = 3) {
    std::vector<std::uint8_t> out;
    put_varint(out, 1);
    put_varint(out, patient_id);
    put_varint(out, window_index);
    put_u8(out, static_cast<std::uint8_t>(cs::WindowPriority::kRoutine));
    put_varint(out, route_tag);
    put_varint(out, 12345);
    put_f64le(out, 21.7);
    put_varint(out, iterations);
    put_f64le(out, 1.25);
    put_f64le(out, 4.5);
    const std::vector<double> signal{0.25, -0.5};
    encode_values(out, signal, WireEncodeOptions{});
    return out;
  };
  std::vector<host::WindowResult> results;
  constexpr auto kIntMax = static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  ASSERT_TRUE(decode_result_batch(payload(kU32Max, kU32Max, kU32Max, kIntMax), results, nullptr));
  EXPECT_EQ(results.at(0).patient_id, kU32Max);
  EXPECT_EQ(results.at(0).iterations, std::numeric_limits<int>::max());
  EXPECT_FALSE(decode_result_batch(payload(kPastU32, 7, 0), results, nullptr));
  EXPECT_FALSE(decode_result_batch(payload(42, kPastU32, 0), results, nullptr));
  EXPECT_FALSE(decode_result_batch(payload(42, 7, kPastU32), results, nullptr));
  EXPECT_FALSE(decode_result_batch(payload(42, 7, 0, kIntMax + 6), results, nullptr));
}

TEST(U32Fields, PatientFramesRejectWideIds) {
  // DRAIN_PATIENT, DRAIN_DONE and EXTRACT_SLO share this payload.
  std::vector<std::uint8_t> payload;
  std::uint32_t patient_id = 0;
  put_varint(payload, kU32Max);
  ASSERT_TRUE(decode_patient_frame(payload, patient_id));
  EXPECT_EQ(patient_id, kU32Max);
  payload.clear();
  put_varint(payload, kPastU32);
  EXPECT_FALSE(decode_patient_frame(payload, patient_id));
}

TEST(U32Fields, SloStateRejectsWideIds) {
  // SLO_STATE and ADOPT_SLO: patient_id then present = 0.
  const auto payload = [](std::uint64_t patient_id) {
    std::vector<std::uint8_t> out;
    put_varint(out, patient_id);
    put_u8(out, 0);
    return out;
  };
  SloStatePayload slo;
  ASSERT_TRUE(decode_slo_state(payload(kU32Max), slo));
  EXPECT_EQ(slo.patient_id, kU32Max);
  EXPECT_FALSE(decode_slo_state(payload(kPastU32), slo));
}

TEST(U32Fields, PollManyRejectsWideMaxResults) {
  std::vector<std::uint8_t> payload;
  std::uint32_t max_results = 0;
  put_varint(payload, kU32Max);
  ASSERT_TRUE(decode_poll_many(payload, max_results));
  EXPECT_EQ(max_results, kU32Max);
  payload.clear();
  put_varint(payload, kPastU32);
  EXPECT_FALSE(decode_poll_many(payload, max_results));
}

TEST(U32Fields, SnapshotRejectsAWideAdvisory) {
  // nonce, the nine counters, then the advisory: a 32-bit field.
  const auto payload = [](std::uint64_t advisory) {
    std::vector<std::uint8_t> out;
    for (int field = 0; field < 10; ++field) put_varint(out, 1);
    put_varint(out, advisory);
    return out;
  };
  std::uint64_t nonce = 0;
  SnapshotPayload snap;
  std::uint32_t advisory = 0;
  ASSERT_TRUE(decode_snapshot(payload(kU32Max), nonce, snap, advisory));
  EXPECT_EQ(advisory, kU32Max);
  EXPECT_FALSE(decode_snapshot(payload(kPastU32), nonce, snap, advisory));
}

TEST(Frames, ControlFramesRoundTrip) {
  {
    const auto buf = encode_one([](auto& b) { encode_hello(b, HelloPayload{1, 9}); });
    HelloPayload h;
    ASSERT_TRUE(decode_hello(must_peek(buf).payload, h));
    EXPECT_EQ(h.min_version, 1);
    EXPECT_EQ(h.max_version, 9);
  }
  {
    const auto buf = encode_one([](auto& b) {
      encode_error(b, ErrorPayload{ErrorCode::kBadPayload, "oops"});
    });
    ErrorPayload e;
    ASSERT_TRUE(decode_error(must_peek(buf).payload, e));
    EXPECT_EQ(e.code, ErrorCode::kBadPayload);
    EXPECT_EQ(e.detail, "oops");
  }
  {
    const auto buf = encode_one(
        [](auto& b) { encode_patient_frame(b, FrameType::kDrainPatient, 777); });
    std::uint32_t patient = 0;
    ASSERT_TRUE(decode_patient_frame(must_peek(buf).payload, patient));
    EXPECT_EQ(patient, 777u);
  }
  {
    SnapshotPayload s;
    s.submitted = 100;
    s.completed = 90;
    s.retrieved = 80;
    s.shed_routine = 6;
    s.shed_urgent = 1;
    s.rejected = 3;
    s.deadline_violations = 2;
    s.unsolved = 4;
    s.ready = 10;
    const auto buf = encode_one([&](auto& b) { encode_snapshot(b, 5, s, 0); });
    std::uint64_t nonce = 0;
    SnapshotPayload d;
    std::uint32_t advisory = 1;
    ASSERT_TRUE(decode_snapshot(must_peek(buf).payload, nonce, d, advisory));
    EXPECT_EQ(nonce, 5u);
    EXPECT_EQ(d.submitted, 100u);
    EXPECT_EQ(d.ready, 10u);
    EXPECT_EQ(advisory, 0u) << "no pressure";
  }
  {
    SloStatePayload slo;
    slo.patient_id = 9;
    slo.present = true;
    slo.state.submitted = 12;
    slo.state.completed = 11;
    slo.state.sum_us = 34567;
    slo.state.max_us = 9999;
    slo.state.elapsed_us = 1000000;
    slo.state.buckets[3] = 4;
    slo.state.buckets[17] = 7;
    const auto buf =
        encode_one([&](auto& b) { encode_slo_state(b, FrameType::kSloState, slo); });
    SloStatePayload d;
    ASSERT_TRUE(decode_slo_state(must_peek(buf).payload, d));
    EXPECT_EQ(d.patient_id, 9u);
    ASSERT_TRUE(d.present);
    EXPECT_EQ(d.state.submitted, 12u);
    EXPECT_EQ(d.state.buckets, slo.state.buckets);
    EXPECT_EQ(d.state.buckets[17], 7u);
  }
}

TEST(Frames, SloStateDropsBinsPastTheHistogram) {
  // A hostile or foreign peer's bin index past this build's histogram is
  // dropped, not written out of bounds; the rest of the state decodes.
  std::vector<std::uint8_t> payload;
  put_varint(payload, 5);  // patient_id
  put_u8(payload, 1);      // present
  for (const std::uint64_t counter : {3, 3, 3, 0, 0, 0, 0, 600, 400, 1, 1000}) {
    put_varint(payload, counter);
  }
  put_varint(payload, 3);  // bins
  for (const std::uint64_t index : {std::uint64_t{2}, std::uint64_t{100000},
                                    (std::uint64_t{1} << 32) + 2}) {
    put_varint(payload, index);
    put_varint(payload, 7);
  }
  SloStatePayload d;
  ASSERT_TRUE(decode_slo_state(payload, d));
  ASSERT_TRUE(d.present);
  EXPECT_EQ(d.state.completed, 3u);
  EXPECT_EQ(d.state.buckets[2], 7u) << "only the in-range bin lands";
  std::uint64_t binned = 0;
  for (const std::uint64_t count : d.state.buckets) binned += count;
  EXPECT_EQ(binned, 7u);
}

// --- Batched data frames -----------------------------------------------------

std::vector<host::CompressedWindow> sample_batch() {
  std::vector<host::CompressedWindow> windows;
  for (std::uint32_t i = 0; i < 3; ++i) {
    host::CompressedWindow w = sample_window();
    w.window_index = 7 + i;
    w.priority = (i == 1) ? cs::WindowPriority::kRoutine : cs::WindowPriority::kUrgent;
    windows.push_back(std::move(w));
  }
  return windows;
}

TEST(BatchFrames, SubmitBatchRoundTripsBitExactly) {
  const auto windows = sample_batch();
  const WireEncodeOptions opts{0.0048828125};
  const auto buf = encode_one(
      [&](auto& b) { encode_submit_batch(b, windows, kSubmitFlagBlocking, opts); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kSubmitBatch);
  EXPECT_EQ(view.version, kWireVersion);

  std::uint8_t flags = 0;
  std::vector<host::CompressedWindow> decoded;
  ASSERT_TRUE(decode_submit_batch(view.payload, flags, decoded, nullptr));
  EXPECT_EQ(flags, kSubmitFlagBlocking);
  ASSERT_EQ(decoded.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(decoded[i].patient_id, windows[i].patient_id);
    EXPECT_EQ(decoded[i].window_index, windows[i].window_index);
    EXPECT_EQ(decoded[i].matrix_seed, windows[i].matrix_seed);
    EXPECT_EQ(decoded[i].priority, windows[i].priority);
    EXPECT_EQ(decoded[i].route_tag, windows[i].route_tag);
    ASSERT_EQ(decoded[i].measurements.size(), windows[i].measurements.size());
    EXPECT_EQ(std::memcmp(decoded[i].measurements.data(), windows[i].measurements.data(),
                          windows[i].measurements.size() * sizeof(double)),
              0)
        << "window " << i;
  }
}

TEST(BatchFrames, ScatterGatherSealMatchesTheContiguousEncoder) {
  // The pipelined client never assembles a SUBMIT_BATCH contiguously: it
  // stages bodies, then seals prefix + bodies + CRC trailer as three
  // spans.  Concatenated, those spans must be byte-identical to the
  // whole-frame encoder — the goldens cover both paths at once.
  const auto windows = sample_batch();
  const WireEncodeOptions opts{0.0048828125};
  const auto whole = encode_one(
      [&](auto& b) { encode_submit_batch(b, windows, kSubmitFlagBlocking, opts); });

  std::vector<std::uint8_t> bodies;
  for (const auto& w : windows) encode_submit_batch_entry(bodies, w, opts);
  std::vector<std::uint8_t> prefix;
  encode_submit_batch_prefix(prefix, kSubmitFlagBlocking, windows.size(), bodies.size());
  std::vector<std::uint8_t> trailer;
  encode_submit_batch_trailer(trailer, prefix, bodies);

  std::vector<std::uint8_t> sealed = prefix;
  sealed.insert(sealed.end(), bodies.begin(), bodies.end());
  sealed.insert(sealed.end(), trailer.begin(), trailer.end());
  ASSERT_EQ(sealed.size(), whole.size());
  EXPECT_EQ(std::memcmp(sealed.data(), whole.data(), whole.size()), 0);
  FrameView view;
  EXPECT_EQ(peek_frame(sealed, view), FrameStatus::kOk) << "CRC must cover prefix and bodies";
}

/// Two staged result bodies: sample_result() and a 512-sample
/// WAVELET_RESIDUAL one.
std::vector<host::WindowResult> ack_results() {
  auto second = sample_result();
  second.window_index = 8;
  second.ticket = 12346;
  second.signal = fista_signal(512, 50.0, 11);
  return {sample_result(), second};
}

TEST(BatchFrames, SubmitBatchAckRoundTrips) {
  const std::vector<SubmitBatchAckEntry> entries{
      {true, 0},
      {false, 0},
      {true, std::numeric_limits<std::uint64_t>::max()},
  };
  const auto carried = ack_results();
  std::vector<std::uint8_t> none, bodies;
  for (const auto& r : carried) encode_result_entry(bodies, r, WireEncodeOptions{});
  // With no results, and with the two riding behind the entries.
  for (const std::size_t count : {std::size_t{0}, carried.size()}) {
    SCOPED_TRACE(count);
    std::vector<std::uint8_t> buf;
    encode_submit_batch_ack(buf, entries, count == 0 ? none : bodies, count);
    const auto view = must_peek(buf);
    EXPECT_EQ(view.type, FrameType::kSubmitBatchAck);
    EXPECT_EQ(view.version, kWireVersion);
    std::vector<SubmitBatchAckEntry> decoded;
    std::vector<host::WindowResult> results;
    host::PayloadPool pool;
    ASSERT_TRUE(decode_submit_batch_ack(view.payload, decoded, results, &pool));
    ASSERT_EQ(decoded.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(decoded[i].accepted, entries[i].accepted) << "entry " << i;
      if (entries[i].accepted) {
        EXPECT_EQ(decoded[i].local_ticket, entries[i].local_ticket) << "entry " << i;
      }
    }
    ASSERT_EQ(results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(results[i].window_index, carried[i].window_index);
      EXPECT_EQ(results[i].ticket, carried[i].ticket);
      EXPECT_EQ(results[i].iterations, carried[i].iterations);
      EXPECT_TRUE(same_bits(results[i].signal, carried[i].signal)) << "result " << i;
    }
    // The signals were decoded into pool buffers.
    EXPECT_EQ(pool.stats().misses, count);
  }
}

TEST(BatchFrames, MalformedAckResultsAreRejected) {
  const std::vector<SubmitBatchAckEntry> entries{{true, 100}, {false, 0}};
  const auto carried = ack_results();
  std::vector<std::uint8_t> first, second;
  encode_result_entry(first, carried[0], WireEncodeOptions{});
  encode_result_entry(second, carried[1], WireEncodeOptions{});
  // entries: count(1) accepted(1) ticket(1) accepted(1); then the result count.
  constexpr std::size_t kResultCountAt = 4;
  const auto payload_with = [&](std::uint64_t count, std::span<const std::uint8_t> bodies) {
    std::vector<std::uint8_t> buf;
    encode_submit_batch_ack(buf, entries, bodies, count);
    const auto view = must_peek(buf);
    return std::vector<std::uint8_t>(view.payload.begin(), view.payload.end());
  };
  std::vector<SubmitBatchAckEntry> decoded;
  std::vector<host::WindowResult> results;
  std::vector<std::uint8_t> both = first;
  both.insert(both.end(), second.begin(), second.end());
  ASSERT_TRUE(decode_submit_batch_ack(payload_with(2, both), decoded, results, nullptr));
  ASSERT_EQ(payload_with(2, both)[kResultCountAt], 2u);

  // A result count the bytes do not back: one body short, and a count far
  // past the payload (bounded before any reserve()).
  EXPECT_FALSE(decode_submit_batch_ack(payload_with(2, first), decoded, results, nullptr));
  EXPECT_FALSE(decode_submit_batch_ack(payload_with(1u << 30, both), decoded, results, nullptr));
  // Fewer results declared than carried: trailing bytes.
  EXPECT_FALSE(decode_submit_batch_ack(payload_with(1, both), decoded, results, nullptr));
  // A missing result count.
  auto truncated = payload_with(0, {});
  truncated.pop_back();
  EXPECT_FALSE(decode_submit_batch_ack(truncated, decoded, results, nullptr));

  // A bad entry: the second body's signal coding byte names no coding.
  auto bad = payload_with(2, both);
  std::vector<std::uint8_t> signal;
  encode_signal_values(signal, carried[1].signal);
  const std::size_t coding_at = bad.size() - signal.size();
  ASSERT_EQ(bad[coding_at], static_cast<std::uint8_t>(ValueCoding::kWaveletResidual));
  bad[coding_at] = 9;
  EXPECT_FALSE(decode_submit_batch_ack(bad, decoded, results, nullptr));
  // And one whose iterations field is past INT_MAX.
  std::vector<std::uint8_t> wide_body = first;
  // patient 42, window 7, priority, route 3, ticket 12345 (2 bytes), snr f64.
  constexpr std::size_t kIterationsAt = 1 + 1 + 1 + 1 + 2 + 8;
  ASSERT_EQ(wide_body[kIterationsAt], 83u);
  std::vector<std::uint8_t> widened(wide_body.begin(), wide_body.begin() + kIterationsAt);
  put_varint(widened, std::uint64_t{1} << 31);
  widened.insert(widened.end(), wide_body.begin() + kIterationsAt + 1, wide_body.end());
  EXPECT_FALSE(decode_submit_batch_ack(payload_with(1, widened), decoded, results, nullptr));
}

TEST(BatchFrames, PollManyAndResultBatchRoundTrip) {
  {
    const auto buf = encode_one([](auto& b) { encode_poll_many(b, 48); });
    const auto view = must_peek(buf);
    EXPECT_EQ(view.type, FrameType::kPollMany);
    EXPECT_EQ(view.version, kWireVersion);
    std::uint32_t max_results = 0;
    ASSERT_TRUE(decode_poll_many(view.payload, max_results));
    EXPECT_EQ(max_results, 48u);
  }
  {
    // Two staged result bodies framed as one RESULT_BATCH.
    std::vector<std::uint8_t> bodies;
    auto first = sample_result();
    auto second = sample_result();
    second.window_index = 8;
    second.ticket = 12346;
    encode_result_entry(bodies, first, WireEncodeOptions{});
    encode_result_entry(bodies, second, WireEncodeOptions{});
    const auto buf = encode_one([&](auto& b) { encode_result_batch(b, bodies, 2); });
    const auto view = must_peek(buf);
    EXPECT_EQ(view.type, FrameType::kResultBatch);
    std::vector<host::WindowResult> decoded;
    ASSERT_TRUE(decode_result_batch(view.payload, decoded, nullptr));
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[0].ticket, first.ticket);
    EXPECT_EQ(decoded[1].window_index, 8u);
    ASSERT_EQ(decoded[0].signal.size(), first.signal.size());
    EXPECT_EQ(std::memcmp(decoded[0].signal.data(), first.signal.data(),
                          first.signal.size() * sizeof(double)),
              0);
  }
  {
    // A parked POLL_MANY released by the next frame before any result is
    // ready is answered with an empty batch.
    const auto buf = encode_one([](auto& b) { encode_result_batch(b, {}, 0); });
    std::vector<host::WindowResult> decoded;
    ASSERT_TRUE(decode_result_batch(must_peek(buf).payload, decoded, nullptr));
    EXPECT_TRUE(decoded.empty());
  }
}

// The pool keeps one freelist for every payload: a client's window buffer,
// recycled when the shard acknowledges the window, is the very block the
// next decoded result signal lands in — a hit, not a fresh allocation.
TEST(BatchFrames, RecycledWindowBufferServesTheNextDecodedSignal) {
  host::PayloadPool pool;
  host::CompressedWindow window = pool.acquire_window();
  window.measurements.assign(32, 0.5);
  const double* block = window.measurements.data();
  pool.recycle(std::move(window));
  const auto before = pool.stats();

  std::vector<std::uint8_t> bodies;
  const auto sent = sample_result();
  encode_result_entry(bodies, sent, WireEncodeOptions{});
  const auto buf = encode_one([&](auto& b) { encode_result_batch(b, bodies, 1); });
  std::vector<host::WindowResult> decoded;
  ASSERT_TRUE(decode_result_batch(must_peek(buf).payload, decoded, &pool));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].signal.data(), block);
  EXPECT_EQ(decoded[0].signal.size(), sent.signal.size());
  const auto after = pool.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

// The liveness probe is a SNAPSHOT_REQUEST: its nonce round-trips
// bit-exactly, and a request with no nonce, a nonce cut short or bytes
// after it is malformed.
TEST(BatchFrames, HealthRoundTripsBitExactly) {
  const auto buf =
      encode_one([](auto& b) { encode_snapshot_request(b, /*nonce=*/0xFEEDFACE12ull); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kSnapshotRequest);
  EXPECT_EQ(view.version, kWireVersion);
  std::uint64_t nonce = 0;
  ASSERT_TRUE(decode_snapshot_request(view.payload, nonce));
  EXPECT_EQ(nonce, 0xFEEDFACE12ull);

  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(decode_snapshot_request(payload, nonce));
  payload.push_back(0x80);
  EXPECT_FALSE(decode_snapshot_request(payload, nonce));
  payload.assign(view.payload.begin(), view.payload.end());
  payload.push_back(0xAA);
  EXPECT_FALSE(decode_snapshot_request(payload, nonce));
}

// The CR advisory is asked for by the same SNAPSHOT_REQUEST: the request
// carries the nonce and nothing else (no epoch, no entry limit), at every
// varint width the client's counter can reach.
TEST(BatchFrames, CrHintRoundTripsBitExactly) {
  const struct {
    std::uint64_t nonce;
    std::size_t bytes;
  } cases[] = {{0, 1}, {127, 1}, {128, 2}, {std::uint64_t{1} << 63, 10}, {~std::uint64_t{0}, 10}};
  for (const auto& c : cases) {
    const auto buf = encode_one([&](auto& b) { encode_snapshot_request(b, c.nonce); });
    const auto view = must_peek(buf);
    EXPECT_EQ(view.type, FrameType::kSnapshotRequest);
    EXPECT_EQ(view.payload.size(), c.bytes) << c.nonce;
    std::uint64_t nonce = c.nonce + 1;
    ASSERT_TRUE(decode_snapshot_request(view.payload, nonce)) << c.nonce;
    EXPECT_EQ(nonce, c.nonce);
  }
}

// The probe's answer is a SNAPSHOT: the nonce echo, the queue depths
// (unsolved, ready) and every other counter round-trip bit-exactly.
TEST(BatchFrames, HealthAckRoundTripsBitExactly) {
  SnapshotPayload snap;
  snap.submitted = 1000;
  snap.completed = 990;
  snap.retrieved = ~std::uint64_t{0};  // A 10-byte varint.
  snap.shed_routine = 7;
  snap.shed_urgent = 3;
  snap.rejected = 11;
  snap.deadline_violations = 5;
  snap.unsolved = 17;
  snap.ready = 5;
  snap.lost = 99;  // Coordinator-side: never on the wire.
  const auto buf = encode_one(
      [&](auto& b) { encode_snapshot(b, /*nonce=*/0xFEEDFACE12ull, snap, /*CR 70.00%*/ 7000); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kSnapshot);
  EXPECT_EQ(view.version, kWireVersion);
  std::uint64_t nonce = 0;
  SnapshotPayload decoded;
  std::uint32_t advisory = 0;
  ASSERT_TRUE(decode_snapshot(view.payload, nonce, decoded, advisory));
  EXPECT_EQ(nonce, 0xFEEDFACE12ull);
  EXPECT_EQ(decoded.submitted, snap.submitted);
  EXPECT_EQ(decoded.completed, snap.completed);
  EXPECT_EQ(decoded.retrieved, snap.retrieved);
  EXPECT_EQ(decoded.shed_routine, snap.shed_routine);
  EXPECT_EQ(decoded.shed_urgent, snap.shed_urgent);
  EXPECT_EQ(decoded.rejected, snap.rejected);
  EXPECT_EQ(decoded.deadline_violations, snap.deadline_violations);
  EXPECT_EQ(decoded.unsolved, snap.unsolved);
  EXPECT_EQ(decoded.ready, snap.ready);
  EXPECT_EQ(decoded.lost, 0u);

  // Trailing garbage after the advisory is malformed, not ignored — a
  // liveness probe must never "succeed" on a corrupt answer.
  std::vector<std::uint8_t> payload(view.payload.begin(), view.payload.end());
  payload.push_back(0xAA);
  EXPECT_FALSE(decode_snapshot(payload, nonce, decoded, advisory));
  // And an answer cut before its advisory is malformed too.
  payload.resize(view.payload.size() - 2);
  EXPECT_FALSE(decode_snapshot(payload, nonce, decoded, advisory));
}

// The shard-wide CR advisory rides at the end of SNAPSHOT: the pressure
// answer and the no-pressure 0 both round-trip, and neither disturbs the
// counters beside it.
TEST(BatchFrames, CrHintAckRoundTripsBitExactly) {
  SnapshotPayload snap;
  snap.submitted = 42;
  snap.completed = 40;
  snap.unsolved = 2;
  for (const std::uint32_t sent : {7000u /* CR 70.00% */, 0u /* no pressure */}) {
    const auto buf = encode_one([&](auto& b) { encode_snapshot(b, /*nonce=*/3, snap, sent); });
    const auto view = must_peek(buf);
    EXPECT_EQ(view.type, FrameType::kSnapshot);
    std::uint64_t nonce = 0;
    SnapshotPayload decoded;
    std::uint32_t advisory = sent + 1;
    ASSERT_TRUE(decode_snapshot(view.payload, nonce, decoded, advisory)) << sent;
    EXPECT_EQ(advisory, sent);
    EXPECT_EQ(nonce, 3u);
    EXPECT_EQ(decoded.submitted, snap.submitted);
    EXPECT_EQ(decoded.completed, snap.completed);
    EXPECT_EQ(decoded.unsolved, snap.unsolved);
  }
}

TEST(BatchFrames, OverstatedCountsAreMalformedNotOverreads) {
  // A count claiming more entries than the payload holds must fail the
  // decode cleanly (latched reader), never read past the frame.
  const auto windows = sample_batch();
  auto buf = encode_one(
      [&](auto& b) { encode_submit_batch(b, windows, 0, WireEncodeOptions{}); });
  auto view = must_peek(buf);
  // Payload starts flags(u8) count(varint); 3 windows encode as one byte.
  std::vector<std::uint8_t> payload(view.payload.begin(), view.payload.end());
  ASSERT_EQ(payload[1], 3u);
  payload[1] = 4;
  std::uint8_t flags = 0;
  std::vector<host::CompressedWindow> decoded;
  EXPECT_FALSE(decode_submit_batch(payload, flags, decoded, nullptr));

  std::vector<std::uint8_t> bodies;
  encode_result_entry(bodies, sample_result(), WireEncodeOptions{});
  const auto rb = encode_one([&](auto& b) { encode_result_batch(b, bodies, 1); });
  view = must_peek(rb);
  payload.assign(view.payload.begin(), view.payload.end());
  ASSERT_EQ(payload[0], 1u);
  payload[0] = 2;
  std::vector<host::WindowResult> results;
  EXPECT_FALSE(decode_result_batch(payload, results, nullptr));
}

TEST(Framing, TruncatedFramesWantMoreBytes) {
  const std::vector<std::vector<std::uint8_t>> frames{
      encode_one([](auto& b) { encode_hello(b, HelloPayload{}); }),
      encode_one([](auto& b) { encode_poll_many(b, 32); }),
      encode_one([](auto& b) {
        encode_submit_batch(b, sample_batch(), kSubmitFlagBlocking,
                            WireEncodeOptions{0.0048828125});
      }),
      encode_one([](auto& b) { encode_snapshot_request(b, 0xA5A5A5A5ull); }),
      encode_one([](auto& b) { encode_snapshot(b, 1, SnapshotPayload{}, 7000); }),
  };
  for (const auto& buf : frames) {
    for (std::size_t len = 0; len < buf.size(); ++len) {
      FrameView view;
      EXPECT_EQ(peek_frame({buf.data(), len}, view), FrameStatus::kNeedMore)
          << "prefix length " << len;
    }
    FrameView view;
    EXPECT_EQ(peek_frame(buf, view), FrameStatus::kOk);
  }
}

TEST(Framing, EveryFlippedBitIsRejected) {
  const std::vector<std::vector<std::uint8_t>> frames{
      encode_one([](auto& b) { encode_poll_many(b, 0xDEADBEEF); }),
      encode_one([](auto& b) {
        encode_submit_batch_ack(b, std::vector<SubmitBatchAckEntry>{{true, 7}, {false, 0}});
      }),
      encode_one([](auto& b) { encode_snapshot_request(b, 0xDEAD); }),
      encode_one([](auto& b) { encode_snapshot(b, 7, SnapshotPayload{}, 6500); }),
  };
  for (const auto& buf : frames) {
    for (std::size_t byte = 0; byte < buf.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto corrupt = buf;
        corrupt[byte] ^= static_cast<std::uint8_t>(1 << bit);
        FrameView view;
        const auto status = peek_frame(corrupt, view);
        // Whatever the flipped bit hit (magic, version, type, length,
        // payload, CRC), the frame must not decode as a clean kOk of the
        // original — either the status reports the damage, or the length
        // field grew and the parser asks for bytes that never come.
        if (status == FrameStatus::kOk) {
          // A flip in the version byte is the only field the CRC covers
          // that peek reports separately; everything else must fail.
          ADD_FAILURE() << "byte " << byte << " bit " << bit << " accepted";
        }
      }
    }
  }
}

TEST(Framing, UnknownVersionIsSurfacedNotGuessed) {
  // Any header version but kWireVersion — an earlier one or a future one —
  // with a correct CRC (a real sender would checksum correctly).
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2},
                                     std::uint8_t{kWireVersion + 1}}) {
    auto buf = encode_one([](auto& b) { encode_poll_many(b, 1); });
    buf[2] = version;
    const std::uint32_t crc = crc32c(buf.data(), buf.size() - kFrameTrailerBytes);
    buf[buf.size() - 4] = static_cast<std::uint8_t>(crc);
    buf[buf.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
    buf[buf.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
    buf[buf.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
    FrameView view;
    EXPECT_EQ(peek_frame(buf, view), FrameStatus::kBadVersion);
    EXPECT_EQ(view.version, version);
    EXPECT_EQ(view.frame_bytes, buf.size());  // Skippable without a guess.
  }
}

TEST(Framing, OversizedLengthRejectedBeforeBuffering) {
  std::vector<std::uint8_t> buf{kMagic0, kMagic1, kWireVersion,
                                static_cast<std::uint8_t>(FrameType::kPollMany),
                                0xFF, 0xFF, 0xFF, 0x7F};
  FrameView view;
  EXPECT_EQ(peek_frame(buf, view), FrameStatus::kOversized);
}

TEST(Framing, GarbageBytesAreBadMagic) {
  const std::vector<std::uint8_t> buf{0x00, 0x01, 0x02, 0x03};
  FrameView view;
  EXPECT_EQ(peek_frame(buf, view), FrameStatus::kBadMagic);
}

// --- Golden frames -----------------------------------------------------------

struct Golden {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

/// The WAVELET_RESIDUAL fixture: a converged 512-sample CR-50 FISTA
/// reconstruction, the steady workload's shape.
host::WindowResult wavelet_golden_result() {
  auto result = sample_result();
  result.signal = fista_signal(512, 50.0, 11);
  return result;
}

std::vector<Golden> golden_set() {
  std::vector<Golden> set;
  set.push_back({"hello.bin", encode_one([](auto& b) { encode_hello(b, HelloPayload{}); })});
  set.push_back({"hello_ack.bin", encode_one([](auto& b) { encode_hello_ack(b, kWireVersion); })});
  set.push_back({"error_unsupported_version.bin", encode_one([](auto& b) {
                   encode_error(b, ErrorPayload{ErrorCode::kUnsupportedVersion,
                                                "no mutual wire version"});
                 })});
  set.push_back({"slo_state.bin", encode_one([](auto& b) {
                   SloStatePayload slo;
                   slo.patient_id = 42;
                   slo.present = true;
                   slo.state.submitted = 10;
                   slo.state.completed = 10;
                   slo.state.retrieved = 9;
                   slo.state.sum_us = 123456;
                   slo.state.max_us = 40000;
                   slo.state.max_in_flight = 4;
                   slo.state.elapsed_us = 2000000;
                   slo.state.buckets[96] = 3;
                   slo.state.buckets[104] = 7;
                   encode_slo_state(b, FrameType::kSloState, slo);
                 })});
  set.push_back({"snapshot.bin", encode_one([](auto& b) {
                   SnapshotPayload s;
                   s.submitted = 1000;
                   s.completed = 990;
                   s.retrieved = 980;
                   s.shed_routine = 7;
                   s.shed_urgent = 3;
                   s.rejected = 11;
                   s.deadline_violations = 5;
                   s.unsolved = 0;
                   s.ready = 10;
                   encode_snapshot(b, /*nonce=*/7, s, /*advisory_cr_centi=*/7000);
                 })});
  set.push_back({"bye.bin", encode_one([](auto& b) { encode_bye(b); })});
  set.push_back({"submit_batch.bin", encode_one([](auto& b) {
                   encode_submit_batch(b, sample_batch(), kSubmitFlagBlocking,
                                       WireEncodeOptions{0.0048828125});
                 })});
  set.push_back({"submit_batch_ack.bin", encode_one([](auto& b) {
                   const SubmitBatchAckEntry entries[] = {{true, 100}, {false, 0}, {true, 101}};
                   std::vector<std::uint8_t> bodies;
                   encode_result_entry(bodies, sample_result(), WireEncodeOptions{});
                   encode_submit_batch_ack(b, entries, bodies, 1);
                 })});
  set.push_back({"poll_many.bin", encode_one([](auto& b) { encode_poll_many(b, 64); })});
  set.push_back({"result_batch.bin", encode_one([](auto& b) {
                   std::vector<std::uint8_t> bodies;
                   auto first = sample_result();
                   auto second = sample_result();
                   second.window_index = 8;
                   second.ticket = 12346;
                   encode_result_entry(bodies, first, WireEncodeOptions{});
                   encode_result_entry(bodies, second, WireEncodeOptions{});
                   encode_result_batch(b, bodies, 2);
                 })});
  set.push_back({"result_batch_wavelet.bin", encode_one([](auto& b) {
                   std::vector<std::uint8_t> bodies;
                   encode_result_entry(bodies, wavelet_golden_result(), WireEncodeOptions{});
                   encode_result_batch(b, bodies, 1);
                 })});
  return set;
}

std::string golden_dir() { return WBSN_GOLDEN_FRAME_DIR; }

TEST(Golden, CommittedFramesMatchEncoderByteForByte) {
  const auto set = golden_set();
  if (std::getenv("WBSN_REGEN_GOLDEN") != nullptr) {
    for (const auto& g : set) {
      std::ofstream out(golden_dir() + "/" + g.name, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << g.name;
      out.write(reinterpret_cast<const char*>(g.bytes.data()),
                static_cast<std::streamsize>(g.bytes.size()));
    }
    GTEST_SKIP() << "regenerated " << set.size() << " golden frames";
  }
  for (const auto& g : set) {
    std::ifstream in(golden_dir() + "/" + g.name, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden frame " << g.name
                           << " (run with WBSN_REGEN_GOLDEN=1 to create)";
    std::vector<std::uint8_t> disk((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    ASSERT_EQ(disk.size(), g.bytes.size()) << g.name;
    EXPECT_EQ(std::memcmp(disk.data(), g.bytes.data(), disk.size()), 0)
        << g.name << ": committed bytes diverge from the current encoder — "
        << "either fix the regression or consciously regenerate + update "
        << "docs/WIRE_FORMAT.md";
  }
}

TEST(Golden, CommittedSubmitWindowDecodesIndependently) {
  // Decode the *file*, not the encoder's output: proves a fresh decoder
  // implementation agrees with the committed spec fixtures.
  std::ifstream in(golden_dir() + "/submit_batch.bin", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> disk((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  FrameView view;
  ASSERT_EQ(peek_frame(disk, view), FrameStatus::kOk);
  ASSERT_EQ(view.type, FrameType::kSubmitBatch);
  std::uint8_t flags = 0;
  std::vector<host::CompressedWindow> windows;
  ASSERT_TRUE(decode_submit_batch(view.payload, flags, windows, nullptr));
  ASSERT_EQ(windows.size(), 3u);
  const auto& w = windows.front();
  const auto expect = sample_window();
  EXPECT_EQ(flags, kSubmitFlagBlocking);
  EXPECT_EQ(w.patient_id, expect.patient_id);
  EXPECT_EQ(w.window_index, expect.window_index);
  EXPECT_EQ(w.matrix_seed, expect.matrix_seed);
  EXPECT_EQ(w.window_samples, expect.window_samples);
  EXPECT_EQ(w.priority, expect.priority);
  ASSERT_EQ(w.measurements.size(), expect.measurements.size());
  EXPECT_EQ(std::memcmp(w.measurements.data(), expect.measurements.data(),
                        w.measurements.size() * sizeof(double)),
            0);
}

TEST(Golden, CommittedWaveletResultDecodesIndependently) {
  std::ifstream in(golden_dir() + "/result_batch_wavelet.bin", std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> disk((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  FrameView view;
  ASSERT_EQ(peek_frame(disk, view), FrameStatus::kOk);
  ASSERT_EQ(view.type, FrameType::kResultBatch);

  spec::Reader r{view.payload};
  ASSERT_EQ(r.varint(), 1u);  // count
  const auto expect = wavelet_golden_result();
  EXPECT_EQ(r.varint(), expect.patient_id);
  EXPECT_EQ(r.varint(), expect.window_index);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(expect.priority));
  EXPECT_EQ(r.varint(), expect.route_tag);
  EXPECT_EQ(r.varint(), expect.ticket);
  EXPECT_EQ(r.f64(), expect.snr_db);
  EXPECT_EQ(r.varint(), static_cast<std::uint64_t>(expect.iterations));
  EXPECT_EQ(r.f64(), expect.latency_ms);
  EXPECT_EQ(r.f64(), expect.e2e_ms);
  const std::size_t vector_at = r.pos;
  ASSERT_EQ(r.u8(), 4u);  // WAVELET_RESIDUAL
  std::vector<double> signal;
  spec::Body body;
  ASSERT_TRUE(spec::decode_wavelet_residual(r, signal, &body));
  EXPECT_EQ(r.pos, view.payload.size());
  EXPECT_TRUE(same_bits(signal, expect.signal));
  // The spec writer rebuilds the committed bytes from the parsed fields.
  EXPECT_EQ(spec::write(body),
            std::vector<std::uint8_t>(view.payload.begin() + static_cast<long>(vector_at),
                                      view.payload.end()));

  // The reference decoder agrees.
  std::vector<host::WindowResult> decoded;
  ASSERT_TRUE(decode_result_batch(view.payload, decoded, nullptr));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(same_bits(decoded[0].signal, signal));
}

}  // namespace
}  // namespace wbsn::net
