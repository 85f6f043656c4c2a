// wbsn-wire v4 codec tests: CRC vectors, varint properties, value-coding
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

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "net/crc32c.hpp"

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
    slo.state.buckets = {{3, 4}, {17, 7}};
    const auto buf =
        encode_one([&](auto& b) { encode_slo_state(b, FrameType::kSloState, slo); });
    SloStatePayload d;
    ASSERT_TRUE(decode_slo_state(must_peek(buf).payload, d));
    EXPECT_EQ(d.patient_id, 9u);
    ASSERT_TRUE(d.present);
    EXPECT_EQ(d.state.submitted, 12u);
    ASSERT_EQ(d.state.buckets.size(), 2u);
    EXPECT_EQ(d.state.buckets[1].first, 17u);
    EXPECT_EQ(d.state.buckets[1].second, 7u);
  }
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
                   slo.state.buckets = {{96, 3}, {104, 7}};
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

}  // namespace
}  // namespace wbsn::net
