// wbsn-wire v5 codec tests: CRC vectors, varint properties, value-coding
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
#include "host/payload_pool.hpp"
#include "kern/backend.hpp"
#include "net/crc32c.hpp"
#include "sig/adc.hpp"
#include "sig/ecg_synth.hpp"

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
  // non-finite input never reaches it.
  EXPECT_EQ(codings[0], ValueCoding::kWaveletResidual);
  EXPECT_EQ(codings[2], ValueCoding::kWaveletResidual);
  EXPECT_EQ(codings[3], ValueCoding::kFloat64);
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

/// Hand-built WAVELET_RESIDUAL coded vector.
std::vector<std::uint8_t> wavelet_vector(std::uint64_t count, std::uint8_t levels,
                                         const std::vector<std::uint8_t>& tail) {
  std::vector<std::uint8_t> buf;
  put_u8(buf, static_cast<std::uint8_t>(ValueCoding::kWaveletResidual));
  put_varint(buf, count);
  put_u8(buf, levels);
  buf.insert(buf.end(), tail.begin(), tail.end());
  return buf;
}

/// Bitmap of `bits` set bits from the start, then the coefficients, then
/// one zero residual per sample.
std::vector<std::uint8_t> wavelet_tail(std::size_t count, std::size_t bits, double coefficient,
                                       std::size_t residuals) {
  std::vector<std::uint8_t> tail((count + 7) / 8, 0);
  for (std::size_t i = 0; i < bits; ++i) tail[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  for (std::size_t i = 0; i < bits; ++i) put_f64le(tail, coefficient);
  tail.insert(tail.end(), residuals, 0);
  return tail;
}

bool decodes(const std::vector<std::uint8_t>& buf) {
  WireReader r(buf);
  std::vector<double> out;
  return decode_values(r, out) && r.remaining() == 0;
}

TEST(ValueCoding, HostileWaveletBodiesAreMalformedNotOverreads) {
  // The well-formed baseline the mutations start from.
  ASSERT_TRUE(decodes(wavelet_vector(512, 5, wavelet_tail(512, 3, 1.5, 512))));
  ASSERT_TRUE(decodes(wavelet_vector(12, 2, wavelet_tail(12, 12, 1.5, 12))));

  // Levels: zero, or deeper than the count admits (512 admits 8; 12
  // admits 2, and 12 is no multiple of 2^3).
  EXPECT_FALSE(decodes(wavelet_vector(512, 0, wavelet_tail(512, 3, 1.5, 512))));
  EXPECT_FALSE(decodes(wavelet_vector(512, 9, wavelet_tail(512, 3, 1.5, 512))));
  EXPECT_FALSE(decodes(wavelet_vector(12, 3, wavelet_tail(12, 3, 1.5, 12))));
  EXPECT_FALSE(decodes(wavelet_vector(6, 2, wavelet_tail(6, 1, 1.5, 6))));
  EXPECT_FALSE(decodes(wavelet_vector(0, 1, {})));
  // Count beyond the window-shape limit.
  EXPECT_FALSE(decodes(wavelet_vector(2 * kMaxWindowSamples, 5,
                                      wavelet_tail(2 * kMaxWindowSamples, 0, 0.0,
                                                   2 * kMaxWindowSamples))));
  // Truncated bitmap.
  EXPECT_FALSE(decodes(wavelet_vector(512, 5, std::vector<std::uint8_t>(10, 0))));
  // Set padding bits past `count` in the last bitmap byte.
  auto padded = wavelet_tail(12, 1, 1.5, 12);
  padded[1] |= 0x80;
  EXPECT_FALSE(decodes(wavelet_vector(12, 2, padded)));
  // 8 x popcount beyond the remaining bytes.
  auto dense = wavelet_tail(512, 512, 1.5, 0);
  dense.resize(64 + 8 * 100);
  EXPECT_FALSE(decodes(wavelet_vector(512, 5, dense)));
  // Non-finite coefficients, and finite ones whose inverse DWT overflows.
  EXPECT_FALSE(decodes(wavelet_vector(16, 2, wavelet_tail(16, 1, std::nan(""), 16))));
  EXPECT_FALSE(decodes(wavelet_vector(
      16, 2, wavelet_tail(16, 16, std::numeric_limits<double>::max(), 16))));
  // Missing residuals: one short.
  EXPECT_FALSE(decodes(wavelet_vector(512, 5, wavelet_tail(512, 3, 1.5, 511))));
  // Overlong residual: nine continuation bytes, then a tenth byte above 1.
  auto overlong = wavelet_tail(16, 0, 0.0, 0);
  overlong.insert(overlong.end(), 9, 0xFF);
  overlong.push_back(0x7F);
  overlong.insert(overlong.end(), 15, 0);
  EXPECT_FALSE(decodes(wavelet_vector(16, 2, overlong)));
  // A residual varint that runs off the end.
  auto unterminated = wavelet_tail(16, 0, 0.0, 15);
  unterminated.push_back(0x80);
  EXPECT_FALSE(decodes(wavelet_vector(16, 2, unterminated)));

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
  ASSERT_TRUE(decode_submit_batch_ack(must_peek(ack).payload, entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].local_ticket, std::numeric_limits<std::uint64_t>::max());
}

/// A SUBMIT_BATCH payload holding one window body written field by field,
/// so a test can put shapes on the wire that the engine must never see.
std::vector<std::uint8_t> raw_batch_payload(std::uint64_t n, std::uint64_t d,
                                            std::span<const double> measurements,
                                            const std::vector<double>* reference) {
  std::vector<std::uint8_t> payload;
  // flags, count, then patient_id, window_index, matrix_seed, n, d,
  // priority and route_tag.
  put_u8(payload, kSubmitFlagBlocking);
  put_varint(payload, 1);
  put_varint(payload, 42);
  put_varint(payload, 7);
  put_varint(payload, 0xC0FFEE);
  put_varint(payload, n);
  put_varint(payload, d);
  put_u8(payload, static_cast<std::uint8_t>(cs::WindowPriority::kRoutine));
  put_varint(payload, 0);
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
    const auto buf = encode_one([&](auto& b) { encode_snapshot(b, s); });
    SnapshotPayload d;
    ASSERT_TRUE(decode_snapshot(must_peek(buf).payload, d));
    EXPECT_EQ(d.submitted, 100u);
    EXPECT_EQ(d.ready, 10u);
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

TEST(BatchFrames, SubmitBatchAckRoundTrips) {
  const std::vector<SubmitBatchAckEntry> entries{
      {true, 0},
      {false, 0},
      {true, std::numeric_limits<std::uint64_t>::max()},
  };
  const auto buf = encode_one([&](auto& b) { encode_submit_batch_ack(b, entries); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kSubmitBatchAck);
  EXPECT_EQ(view.version, kWireVersion);
  std::vector<SubmitBatchAckEntry> decoded;
  ASSERT_TRUE(decode_submit_batch_ack(view.payload, decoded));
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].accepted, entries[i].accepted) << "entry " << i;
    if (entries[i].accepted) {
      EXPECT_EQ(decoded[i].local_ticket, entries[i].local_ticket) << "entry " << i;
    }
  }
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

TEST(BatchFrames, CrHintRoundTripsBitExactly) {
  const auto buf =
      encode_one([](auto& b) { encode_cr_hint(b, /*epoch=*/7, /*max_entries=*/64); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kCrHint);
  EXPECT_EQ(view.version, kWireVersion);
  std::uint64_t epoch = 0;
  std::uint32_t max_entries = 0;
  ASSERT_TRUE(decode_cr_hint(view.payload, epoch, max_entries));
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(max_entries, 64u);
}

TEST(BatchFrames, CrHintAckRoundTripsBitExactly) {
  {
    // Pressure case: shard-wide advisory plus per-patient entries.
    CrHintAckPayload ack;
    ack.epoch = 3;
    ack.advisory_cr_centi = 7000;  // CR 70.00%.
    ack.entries = {{11, 7000}, {42, 7000}, {1000001, 6500}};
    const auto buf = encode_one([&](auto& b) { encode_cr_hint_ack(b, ack); });
    const auto view = must_peek(buf);
    EXPECT_EQ(view.type, FrameType::kCrHintAck);
    EXPECT_EQ(view.version, kWireVersion);
    CrHintAckPayload decoded;
    ASSERT_TRUE(decode_cr_hint_ack(view.payload, decoded));
    EXPECT_EQ(decoded.epoch, ack.epoch);
    EXPECT_EQ(decoded.advisory_cr_centi, ack.advisory_cr_centi);
    ASSERT_EQ(decoded.entries.size(), ack.entries.size());
    for (std::size_t i = 0; i < ack.entries.size(); ++i) {
      EXPECT_EQ(decoded.entries[i].patient_id, ack.entries[i].patient_id);
      EXPECT_EQ(decoded.entries[i].cr_centi, ack.entries[i].cr_centi);
    }
  }
  {
    // No-pressure case: advisory 0, no entries — the steady-state answer.
    CrHintAckPayload ack;
    ack.epoch = 0;
    const auto buf = encode_one([&](auto& b) { encode_cr_hint_ack(b, ack); });
    CrHintAckPayload decoded;
    ASSERT_TRUE(decode_cr_hint_ack(must_peek(buf).payload, decoded));
    EXPECT_EQ(decoded.advisory_cr_centi, 0u);
    EXPECT_TRUE(decoded.entries.empty());
  }
}

TEST(BatchFrames, HealthRoundTripsBitExactly) {
  const auto buf =
      encode_one([](auto& b) { encode_health(b, /*nonce=*/0xFEEDFACE12ull); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kHealth);
  EXPECT_EQ(view.version, kWireVersion);
  std::uint64_t nonce = 0;
  ASSERT_TRUE(decode_health(view.payload, nonce));
  EXPECT_EQ(nonce, 0xFEEDFACE12ull);
}

TEST(BatchFrames, HealthAckRoundTripsBitExactly) {
  HealthAckPayload ack;
  ack.nonce = 0xFEEDFACE12ull;
  ack.unsolved = 17;
  ack.ready = 5;
  const auto buf = encode_one([&](auto& b) { encode_health_ack(b, ack); });
  const auto view = must_peek(buf);
  EXPECT_EQ(view.type, FrameType::kHealthAck);
  EXPECT_EQ(view.version, kWireVersion);
  HealthAckPayload decoded;
  ASSERT_TRUE(decode_health_ack(view.payload, decoded));
  EXPECT_EQ(decoded.nonce, ack.nonce);
  EXPECT_EQ(decoded.unsolved, ack.unsolved);
  EXPECT_EQ(decoded.ready, ack.ready);

  // Trailing garbage after the declared fields is malformed, not ignored —
  // a liveness probe must never "succeed" on a corrupt ack.
  std::vector<std::uint8_t> payload(view.payload.begin(), view.payload.end());
  payload.push_back(0xAA);
  EXPECT_FALSE(decode_health_ack(payload, decoded));

  // And a truncated ack (nonce only) is malformed too.
  std::vector<std::uint8_t> short_payload(view.payload.begin(),
                                          view.payload.begin() + 1);
  EXPECT_FALSE(decode_health_ack(short_payload, decoded));
}

TEST(BatchFrames, CrHintAckHostileCountIsMalformedNotOverread) {
  // An entry count claiming more pairs than the payload could possibly
  // hold must fail the decode cleanly before any allocation or overread.
  CrHintAckPayload ack;
  ack.epoch = 1;
  ack.advisory_cr_centi = 7000;
  ack.entries = {{1, 7000}};
  const auto buf = encode_one([&](auto& b) { encode_cr_hint_ack(b, ack); });
  const auto view = must_peek(buf);
  std::vector<std::uint8_t> payload(view.payload.begin(), view.payload.end());
  // Layout: epoch(varint=1B) advisory(varint=2B) count(varint=1B) ...
  ASSERT_EQ(payload[3], 1u);
  payload[3] = 0x7F;  // Claims 127 entries; only one follows.
  CrHintAckPayload decoded;
  EXPECT_FALSE(decode_cr_hint_ack(payload, decoded));

  // Trailing garbage after the declared entries is malformed too.
  payload[3] = 1;
  payload.push_back(0xAA);
  EXPECT_FALSE(decode_cr_hint_ack(payload, decoded));
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
      encode_one([](auto& b) {
        CrHintAckPayload ack;
        ack.epoch = 5;
        ack.advisory_cr_centi = 7000;
        ack.entries = {{11, 7000}, {42, 6500}};
        encode_cr_hint_ack(b, ack);
      }),
      encode_one([](auto& b) { encode_health(b, 0xA5A5A5A5ull); }),
      encode_one([](auto& b) { encode_health_ack(b, HealthAckPayload{1, 2, 3}); }),
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
      encode_one([](auto& b) { encode_cr_hint(b, 9, 64); }),
      encode_one([](auto& b) { encode_health(b, 0xDEAD); }),
      encode_one([](auto& b) { encode_health_ack(b, HealthAckPayload{7, 0, 1}); }),
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
                   encode_snapshot(b, s);
                 })});
  set.push_back({"bye.bin", encode_one([](auto& b) { encode_bye(b); })});
  set.push_back({"submit_batch.bin", encode_one([](auto& b) {
                   encode_submit_batch(b, sample_batch(), kSubmitFlagBlocking,
                                       WireEncodeOptions{0.0048828125});
                 })});
  set.push_back({"submit_batch_ack.bin", encode_one([](auto& b) {
                   encode_submit_batch_ack(
                       b, std::vector<SubmitBatchAckEntry>{{true, 100}, {false, 0}, {true, 101}});
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
  set.push_back({"cr_hint.bin", encode_one([](auto& b) { encode_cr_hint(b, 1, 64); })});
  set.push_back({"cr_hint_ack.bin", encode_one([](auto& b) {
                   CrHintAckPayload ack;
                   ack.epoch = 1;
                   ack.advisory_cr_centi = 7000;
                   ack.entries = {{7, 7000}, {21, 7000}};
                   encode_cr_hint_ack(b, ack);
                 })});
  set.push_back({"health.bin", encode_one([](auto& b) { encode_health(b, 7); })});
  set.push_back({"health_ack.bin", encode_one([](auto& b) {
                   encode_health_ack(b, HealthAckPayload{7, 12, 3});
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

// A second decoder for the RESULT_BATCH signal, written from
// docs/WIRE_FORMAT.md (§1, §3, §3.1, §6) without the reference codec: its
// own reader, the Db4 synthesis taps as the spec prints them, the pairwise
// tree and the periodized cascade.  This file is compiled with
// -ffp-contract=off (tests/CMakeLists.txt), as §3.1 requires of the
// synthesis arithmetic.
namespace spec {

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

constexpr double kH[4] = {0x1.ee8dd4748bf15p-2, 0x1.ac4bdd6e3fd71p-1, 0x1.cb0bf0b6b7109p-3,
                          -0x1.0907dc193069p-3};
constexpr double kG[4] = {-0x1.0907dc193069p-3, -0x1.cb0bf0b6b7109p-3, 0x1.ac4bdd6e3fd71p-1,
                          -0x1.ee8dd4748bf15p-2};

/// One synthesis step: 2h outputs from h approximation and h detail
/// coefficients, k' = (k - 1) mod h.
std::vector<double> synthesize(const std::vector<double>& a, const std::vector<double>& d) {
  const std::size_t h = a.size();
  std::vector<double> x(2 * h);
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t kp = (k + h - 1) % h;
    x[2 * k] = (kH[0] * a[k] + kG[0] * d[k]) + (kH[2] * a[kp] + kG[2] * d[kp]);
    x[2 * k + 1] = (kH[1] * a[k] + kG[1] * d[k]) + (kH[3] * a[kp] + kG[3] * d[kp]);
  }
  return x;
}

/// Body of a coding-4 vector (after the coding byte).
bool decode_wavelet_residual(Reader& r, std::vector<double>& out) {
  const std::uint64_t count = r.varint();
  const unsigned levels = r.u8();
  if (!r.ok || levels < 1 || count > 4096) return false;
  for (std::uint64_t len = count, l = 0; l < levels; ++l, len /= 2) {
    if (len < 4 || len % 2 != 0) return false;
  }
  std::vector<std::uint8_t> bitmap((count + 7) / 8);
  for (auto& byte : bitmap) byte = r.u8();
  std::vector<double> c(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    if ((bitmap[i / 8] >> (i % 8)) & 1) c[i] = r.f64();
  }
  // The cascade: [approx_L | detail_L | detail_L-1 | ... | detail_1].
  std::size_t h = count >> levels;
  std::vector<double> p(c.begin(), c.begin() + static_cast<long>(h));
  for (unsigned l = 0; l < levels; ++l, h *= 2) {
    const std::vector<double> d(c.begin() + static_cast<long>(h),
                                c.begin() + static_cast<long>(2 * h));
    p = synthesize(p, d);
  }
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t z = r.varint();
    const std::uint64_t residual = (z >> 1) ^ (std::uint64_t{0} - (z & 1));
    out[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p[i]) + residual);
  }
  return r.ok;
}

}  // namespace spec

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
  ASSERT_EQ(r.u8(), 4u);  // WAVELET_RESIDUAL
  std::vector<double> signal;
  ASSERT_TRUE(spec::decode_wavelet_residual(r, signal));
  EXPECT_EQ(r.pos, view.payload.size());
  EXPECT_TRUE(same_bits(signal, expect.signal));

  // The reference decoder agrees.
  std::vector<host::WindowResult> decoded;
  ASSERT_TRUE(decode_result_batch(view.payload, decoded, nullptr));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(same_bits(decoded[0].signal, signal));
}

}  // namespace
}  // namespace wbsn::net
