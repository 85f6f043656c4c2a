// Seeded mutational fuzz of every wbsn-wire decoder.
//
// Deterministic: a fixed seed and iteration count, seeded from the
// committed golden frames (tests/net/golden/*.bin), so any failure replays
// exactly.  Each case applies one to four mutations to a golden frame —
// bit flips, byte overwrites, splices from another frame, runaway or
// overlong varints, length-field corruption, count inflation, truncation —
// and every other case then repairs the envelope (magic, version, length
// field, CRC) so the damage reaches the payload decoders instead of
// stopping at the CRC check.  Every decoder runs on every payload,
// whatever its frame type says.
//
// The property is "no crash, no hang, no overread": the sanitizer CI job
// runs this suite under ASan/UBSan, which turns an overread into a
// failure.  A decoder that accepts a mutant must also leave its output
// inside the limits the payload can carry.
//
// Structure-aware cases rebuild SUBMIT_BATCH_ACK payloads field by field
// (entries, result count, result bodies), and SNAPSHOT_REQUEST and
// SNAPSHOT payloads (nonce, counters, advisory), with one field broken,
// and check the verdict each break must get.
//
// Another structure-aware case works below the byte level, where a
// WAVELET_RESIDUAL bitstream's fields sit: it parses encoder output into
// fields with the spec codec (wavelet_spec.hpp), rewrites Rice parameters,
// escapes, padding, exponent fields and 64-bit residual codes, and
// requires the reference decoder to agree with the spec decoder on every
// result.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "dsp/wavelet.hpp"
#include "host/payload_pool.hpp"
#include "net/crc32c.hpp"
#include "net/wire_format.hpp"
#include "wavelet_spec.hpp"

namespace wbsn::net {
namespace {

constexpr std::uint64_t kSeed = 0x5EED'F0220ull;
constexpr int kIterations = 100000;

using Bytes = std::vector<std::uint8_t>;

std::vector<Bytes> load_corpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(WBSN_GOLDEN_FRAME_DIR)) {
    if (entry.path().extension() == ".bin") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // Directory order is not stable.
  std::vector<Bytes> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return corpus;
}

void put_u32_at(Bytes& frame, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) frame[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Restores magic, version, length field and CRC around whatever payload
/// the mutations left.
void repair_envelope(Bytes& frame) {
  if (frame.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    frame.resize(kFrameHeaderBytes + kFrameTrailerBytes, 0);
  }
  frame[0] = kMagic0;
  frame[1] = kMagic1;
  frame[2] = kWireVersion;
  const std::size_t crc_at = frame.size() - kFrameTrailerBytes;
  put_u32_at(frame, 4, static_cast<std::uint32_t>(crc_at - kFrameHeaderBytes));
  put_u32_at(frame, crc_at, crc32c(frame.data(), crc_at));
}

class Mutator {
 public:
  Mutator(std::uint64_t seed, const std::vector<Bytes>& corpus) : rng_(seed), corpus_(corpus) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

  void mutate(Bytes& f) {
    if (f.empty()) f.push_back(0);
    switch (below(8)) {
      case 0:  // Bit flip.
        f[below(f.size())] ^= static_cast<std::uint8_t>(1u << below(8));
        break;
      case 1: {  // Byte overwrite with a boundary or random value.
        static constexpr std::uint8_t kInteresting[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
        f[below(f.size())] = below(2) ? kInteresting[below(5)] : static_cast<std::uint8_t>(rng_());
        break;
      }
      case 2: {  // Splice: a range of this frame becomes a range of another.
        const Bytes& donor = corpus_[below(corpus_.size())];
        const std::size_t at = below(f.size());
        const std::size_t cut = below(f.size() - at + 1);
        const std::size_t from = below(donor.size());
        const std::size_t take = below(std::min<std::size_t>(donor.size() - from, 64) + 1);
        f.erase(f.begin() + static_cast<long>(at), f.begin() + static_cast<long>(at + cut));
        f.insert(f.begin() + static_cast<long>(at), donor.begin() + static_cast<long>(from),
                 donor.begin() + static_cast<long>(from + take));
        break;
      }
      case 3: {  // Runaway or overlong varint: continuation bytes, odd end.
        const std::size_t at = below(f.size());
        Bytes run(1 + below(11), static_cast<std::uint8_t>(0x80 | rng_()));
        run.back() = below(2) ? static_cast<std::uint8_t>(rng_() & 0x7F) : 0x80;
        f.insert(f.begin() + static_cast<long>(at), run.begin(), run.end());
        break;
      }
      case 4:  // Length field.
        if (f.size() >= kFrameHeaderBytes) {
          put_u32_at(f, 4, below(2) ? static_cast<std::uint32_t>(rng_())
                                    : static_cast<std::uint32_t>(f.size() + below(16)) - 8);
        }
        break;
      case 5: {  // Count inflation: one byte becomes a large varint.
        const std::size_t at = below(f.size());
        Bytes big;
        put_varint(big, (std::uint64_t{1} << below(64)) + below(3));
        f.erase(f.begin() + static_cast<long>(at));
        f.insert(f.begin() + static_cast<long>(at), big.begin(), big.end());
        break;
      }
      case 6:  // Truncation.
        f.resize(below(f.size() + 1));
        break;
      default: {  // Duplicate a short range in place.
        const std::size_t at = below(f.size());
        const std::size_t len = below(std::min<std::size_t>(f.size() - at, 32) + 1);
        const Bytes copy(f.begin() + static_cast<long>(at),
                         f.begin() + static_cast<long>(at + len));
        f.insert(f.begin() + static_cast<long>(at), copy.begin(), copy.end());
        break;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
  const std::vector<Bytes>& corpus_;
};

struct Tally {
  int reached = 0;        ///< Cases whose frame peeked kOk: the decoders ran.
  int accepted = 0;       ///< Decoder acceptances over all cases.
  int long_signals = 0;   ///< Accepted results of 512 samples (the wavelet golden's).
};

/// Every payload decoder on one payload.
void run_decoders(std::span<const std::uint8_t> payload, host::PayloadPool* pool,
                  Tally& tally) {
  int& accepted = tally.accepted;
  HelloPayload hello;
  accepted += decode_hello(payload, hello);
  std::uint8_t version = 0;
  accepted += decode_hello_ack(payload, version);
  ErrorPayload error;
  accepted += decode_error(payload, error);
  std::uint32_t patient = 0;
  accepted += decode_patient_frame(payload, patient);
  SloStatePayload slo;
  accepted += decode_slo_state(payload, slo);
  bool adopted = false;
  accepted += decode_adopt_ack(payload, adopted);
  std::uint64_t nonce = 0;
  accepted += decode_snapshot_request(payload, nonce);
  SnapshotPayload snapshot;
  std::uint32_t advisory = 0;
  accepted += decode_snapshot(payload, nonce, snapshot, advisory);

  std::uint8_t flags = 0;
  std::vector<host::CompressedWindow> windows;
  if (decode_submit_batch(payload, flags, windows, pool)) {
    ++accepted;
    for (const auto& w : windows) {
      EXPECT_LE(w.measurements.size(), w.window_samples);
      EXPECT_LE(w.window_samples, kMaxWindowSamples);
    }
  }
  const auto check_results = [&](const std::vector<host::WindowResult>& results) {
    for (const auto& r : results) {
      EXPECT_LE(r.signal.size(), std::max<std::size_t>(kMaxWindowSamples, payload.size() / 8));
      tally.long_signals += r.signal.size() == 512;
    }
  };
  std::vector<SubmitBatchAckEntry> acks;
  std::vector<host::WindowResult> results;
  if (decode_submit_batch_ack(payload, acks, results, pool)) {
    ++accepted;
    EXPECT_LE(acks.size() + results.size(), payload.size());
    check_results(results);
  }
  std::uint32_t max_results = 0;
  accepted += decode_poll_many(payload, max_results);
  if (decode_result_batch(payload, results, pool)) {
    ++accepted;
    check_results(results);
  }
  WireReader r(payload);
  std::vector<double> values;
  accepted += decode_values(r, values);
}

TEST(Fuzz, MutatedGoldenFramesNeverCrashTheDecoders) {
  const auto corpus = load_corpus();
  ASSERT_EQ(corpus.size(), 11u) << "golden corpus missing from " << WBSN_GOLDEN_FRAME_DIR;
  Mutator mutator(kSeed, corpus);
  host::PayloadPool pool;
  Tally tally;
  for (int i = 0; i < kIterations; ++i) {
    Bytes frame = corpus[mutator.below(corpus.size())];
    const std::size_t mutations = 1 + mutator.below(4);
    for (std::size_t m = 0; m < mutations; ++m) mutator.mutate(frame);
    if (i % 2 == 0) repair_envelope(frame);
    FrameView view;
    const FrameStatus status = peek_frame(frame, view);
    if (status == FrameStatus::kOk || status == FrameStatus::kBadVersion) {
      ASSERT_LE(view.frame_bytes, frame.size());
      ASSERT_EQ(view.payload.size() + kFrameHeaderBytes + kFrameTrailerBytes, view.frame_bytes);
      tally.reached += status == FrameStatus::kOk;
      run_decoders(view.payload, i % 4 == 0 ? &pool : nullptr, tally);
    }
  }
  // The repaired half must get through the envelope, and mutants must
  // still parse — the WAVELET_RESIDUAL golden's included — or the fuzz is
  // only testing the CRC.
  EXPECT_GE(tally.reached, kIterations / 2);
  EXPECT_GT(tally.accepted, kIterations / 20);
  EXPECT_GT(tally.long_signals, 0);
}

constexpr int kStructuredIterations = 4000;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// A SUBMIT_BATCH_ACK payload built field by field, so one field at a time
/// can be broken.
struct AckFields {
  std::vector<SubmitBatchAckEntry> entries;
  std::vector<std::uint8_t> accepted_bytes;  ///< Per entry; 0 or 1 unless broken.
  std::uint64_t entry_count = 0;             ///< As written; entries.size() unless broken.
  std::vector<host::WindowResult> results;
  std::vector<Bytes> bodies;                 ///< encode_result_entry of each result.
  std::uint64_t result_count = 0;            ///< As written; results.size() unless broken.

  Bytes write() const {
    Bytes out;
    put_varint(out, entry_count);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      put_u8(out, accepted_bytes[i]);
      if (accepted_bytes[i] == 1) put_varint(out, entries[i].local_ticket);
    }
    put_varint(out, result_count);
    for (const auto& body : bodies) out.insert(out.end(), body.begin(), body.end());
    return out;
  }
};

TEST(Fuzz, StructuredAckBodiesGetTheVerdictTheirBreakDeserves) {
  std::mt19937_64 rng(kSeed ^ 0xACC);
  host::PayloadPool pool;
  enum class Expect { kSame, kReject, kEither };
  int accepted = 0;
  for (int i = 0; i < kStructuredIterations; ++i) {
    AckFields ack;
    const std::size_t entries = rng() % 20;
    for (std::size_t e = 0; e < entries; ++e) {
      const bool ok = rng() % 4 != 0;
      // Tickets of every varint width, 1 to 10 bytes.
      ack.entries.push_back({ok, ok ? rng() >> (rng() % 64) : 0});
      ack.accepted_bytes.push_back(ok ? 1 : 0);
    }
    ack.entry_count = entries;
    const std::size_t results = rng() % 4;
    for (std::size_t k = 0; k < results; ++k) {
      host::WindowResult r;
      r.patient_id = static_cast<std::uint32_t>(rng());
      r.window_index = static_cast<std::uint32_t>(rng() % 100000);
      r.ticket = rng() >> (rng() % 64);
      r.iterations = static_cast<int>(rng() % 1000);
      r.snr_db = static_cast<double>(rng() % 4000) / 100.0;
      const std::size_t n = 16 * (1 + rng() % 8);
      std::uniform_real_distribution<double> uniform(-1.0, 1.0);
      if (rng() % 2 == 0) {
        // Sparse in Db4: ships WAVELET_RESIDUAL.
        std::vector<double> c(n, 0.0);
        for (std::size_t s = 0; s < n; s += 1 + rng() % 6) c[s] = uniform(rng);
        r.signal = dsp::dwt_inverse(c, std::min(3, dsp::dwt_max_levels(n)));
      } else {
        for (std::size_t s = 0; s < n; ++s) r.signal.push_back(uniform(rng));
      }
      Bytes body;
      encode_result_entry(body, r, WireEncodeOptions{});
      ack.bodies.push_back(std::move(body));
      ack.results.push_back(std::move(r));
    }
    ack.result_count = results;

    Expect expect = Expect::kSame;
    Bytes payload;
    switch (rng() % 8) {
      case 0:  // Unbroken.
        payload = ack.write();
        break;
      case 1:  // A result count the bytes do not back.
        ack.result_count += 1 + (rng() % 2 == 0 ? rng() % 3 : rng() >> 8);
        payload = ack.write();
        expect = Expect::kReject;
        break;
      case 2:  // Fewer results declared than carried: trailing bodies.
        if (results == 0) continue;
        ack.result_count -= 1 + rng() % results;
        payload = ack.write();
        expect = Expect::kReject;
        break;
      case 3:  // An accepted flag that is neither 0 nor 1.
        if (entries == 0) continue;
        ack.accepted_bytes[rng() % entries] = static_cast<std::uint8_t>(2 + rng() % 254);
        payload = ack.write();
        expect = Expect::kReject;
        break;
      case 4: {  // A bad entry: a body's signal coding byte names no coding.
        if (results == 0) continue;
        const std::size_t k = rng() % results;
        Bytes signal;
        encode_signal_values(signal, ack.results[k].signal);
        const std::size_t coding_at = ack.bodies[k].size() - signal.size();
        ack.bodies[k][coding_at] = static_cast<std::uint8_t>(5 + rng() % 251);
        payload = ack.write();
        expect = Expect::kReject;
        break;
      }
      case 5:  // Truncated anywhere: every strict prefix is malformed.
        payload = ack.write();
        payload.resize(rng() % payload.size());
        expect = Expect::kReject;
        break;
      case 6:  // Trailing garbage.
        payload = ack.write();
        payload.push_back(static_cast<std::uint8_t>(rng()));
        expect = Expect::kReject;
        break;
      default:  // A miscounted entry list: misaligned, any verdict.
        ack.entry_count = entries + 1 - 2 * (rng() % 2);
        payload = ack.write();
        expect = Expect::kEither;
        break;
    }
    std::vector<SubmitBatchAckEntry> decoded;
    std::vector<host::WindowResult> decoded_results;
    host::PayloadPool* into = i % 2 == 0 ? &pool : nullptr;
    const bool ok = decode_submit_batch_ack(payload, decoded, decoded_results, into);
    accepted += ok;
    if (expect == Expect::kReject) {
      EXPECT_FALSE(ok) << "iteration " << i;
      continue;
    }
    if (expect == Expect::kEither) continue;
    ASSERT_TRUE(ok) << "iteration " << i;
    ASSERT_EQ(decoded.size(), ack.entries.size());
    for (std::size_t e = 0; e < decoded.size(); ++e) {
      EXPECT_EQ(decoded[e].accepted, ack.entries[e].accepted);
      EXPECT_EQ(decoded[e].local_ticket, ack.entries[e].local_ticket);
    }
    ASSERT_EQ(decoded_results.size(), ack.results.size());
    for (std::size_t k = 0; k < decoded_results.size(); ++k) {
      EXPECT_EQ(decoded_results[k].ticket, ack.results[k].ticket);
      EXPECT_EQ(decoded_results[k].patient_id, ack.results[k].patient_id);
      EXPECT_TRUE(same_bits(decoded_results[k].signal, ack.results[k].signal))
          << "iteration " << i << " result " << k;
    }
  }
  EXPECT_GT(accepted, kStructuredIterations / 10);
}

/// SNAPSHOT_REQUEST and SNAPSHOT payloads built field by field, with at
/// most one break each.
TEST(Fuzz, StructuredSnapshotBodiesGetTheVerdictTheirBreakDeserves) {
  std::mt19937_64 rng(kSeed ^ 0x5A4);
  enum class Break { kNone, kTruncated, kTrailing, kWideAdvisory };
  int accepted = 0;
  for (int i = 0; i < kStructuredIterations; ++i) {
    // Every field of every varint width, 1 to 10 bytes.
    const std::uint64_t nonce = rng() >> (rng() % 64);
    std::array<std::uint64_t, 9> counters{};
    for (auto& c : counters) c = rng() >> (rng() % 64);
    const std::uint64_t advisory = rng() % 4 == 0 ? 0 : rng() >> (32 + rng() % 32);
    const bool request = rng() % 2 == 0;
    const auto brk = static_cast<Break>(rng() % (request ? 3 : 4));

    Bytes payload;
    put_varint(payload, nonce);
    if (!request) {
      for (const auto c : counters) put_varint(payload, c);
      put_varint(payload, brk == Break::kWideAdvisory ? advisory | (std::uint64_t{1} << 32)
                                                      : advisory);
    }
    if (brk == Break::kTruncated) payload.resize(rng() % payload.size());
    if (brk == Break::kTrailing) payload.push_back(static_cast<std::uint8_t>(rng()));

    std::uint64_t got_nonce = 0;
    SnapshotPayload snap;
    std::uint32_t got_advisory = 0;
    const bool ok = request ? decode_snapshot_request(payload, got_nonce)
                            : decode_snapshot(payload, got_nonce, snap, got_advisory);
    accepted += ok;
    if (brk != Break::kNone) {
      EXPECT_FALSE(ok) << "iteration " << i;
      continue;
    }
    ASSERT_TRUE(ok) << "iteration " << i;
    EXPECT_EQ(got_nonce, nonce);
    if (request) continue;
    EXPECT_EQ(got_advisory, advisory);
    const std::array<std::uint64_t, 9> decoded{
        snap.submitted,    snap.completed, snap.retrieved,
        snap.shed_routine, snap.shed_urgent, snap.rejected,
        snap.deadline_violations, snap.unsolved, snap.ready};
    EXPECT_EQ(decoded, counters) << "iteration " << i;
  }
  EXPECT_GT(accepted, kStructuredIterations / 5);
}

/// Both decoders on one coded vector: the same verdict, and when both
/// accept, the same bits.  Returns the reference decoder's verdict.
bool decode_both(const Bytes& vector, std::vector<double>& out) {
  WireReader r(vector);
  const bool reference = decode_values(r, out) && r.remaining() == 0;
  spec::Reader sr{vector};
  std::vector<double> spec_out;
  const bool spec_ok = sr.u8() == 4 && spec::decode_wavelet_residual(sr, spec_out) &&
                       sr.pos == vector.size();
  EXPECT_EQ(reference, spec_ok);
  if (reference && spec_ok) {
    EXPECT_TRUE(same_bits(out, spec_out));
  }
  return reference;
}

TEST(Fuzz, StructuredWaveletBodiesMatchTheSpecDecoder) {
  std::mt19937_64 rng(kSeed);
  // Valid bodies: sparse wavelet signals of several lengths, through the
  // reference encoder, parsed into their fields.
  struct Sample {
    std::vector<double> signal;
    spec::Body body;
  };
  std::vector<Sample> corpus;
  for (const std::size_t n : {16u, 18u, 40u, 128u, 512u}) {
    for (int seed = 0; seed < 4; ++seed) {
      const int levels = std::min(5, dsp::dwt_max_levels(n));
      std::vector<double> c(n, 0.0);
      std::uniform_real_distribution<double> uniform(-1.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (i < (n >> levels) || rng() % 5 == 0) c[i] = uniform(rng);
      }
      Sample sample{dsp::dwt_inverse(c, levels), {}};
      Bytes vector;
      ASSERT_EQ(encode_signal_values(vector, sample.signal), ValueCoding::kWaveletResidual);
      spec::Reader r{vector};
      r.u8();
      ASSERT_TRUE(spec::parse(r, sample.body));
      corpus.push_back(std::move(sample));
    }
  }

  enum class Expect { kSame, kReject, kEither };
  int accepted = 0;
  for (int i = 0; i < kStructuredIterations; ++i) {
    const Sample& sample = corpus[rng() % corpus.size()];
    spec::Body body = sample.body;
    Expect expect = Expect::kSame;
    std::size_t flip_bit = 0;  // 0: none; else 1 + the bit to flip.
    switch (rng() % 7) {
      case 0: {  // Any residual block parameter the 6-bit field holds.
        const std::uint64_t k = rng() % 64;
        body.block_params[rng() % body.block_params.size()] = k;
        if (k > spec::kMaxResidualParam) expect = Expect::kReject;
        break;
      }
      case 1:  // Any exponent parameter the 4-bit field holds.
        body.exponent_param = rng() % 16;
        if (!body.coefficients.empty() && body.exponent_param > spec::kMaxExponentParam) {
          expect = Expect::kReject;
        }
        break;
      case 2:  // Escapes where a short code would do: still the same values.
        for (std::uint64_t e = 1 + rng() % 4; e > 0; --e) {
          if (rng() % 2 == 0 && !body.coefficients.empty()) {
            body.coefficients[rng() % body.coefficients.size()].offset.escaped = true;
          } else {
            body.residuals[rng() % body.residuals.size()].escaped = true;
          }
        }
        break;
      case 3:  // Padding bits: any set one is malformed.
        body.pad = rng() % 256;
        if (spec::write(body) != spec::write(sample.body)) expect = Expect::kReject;
        break;
      case 4:  // Another e_max: other coefficients, or a rejected body.
        body.e_max = rng() % 2048;
        expect = Expect::kEither;
        break;
      case 5: {  // A code that fills the 64-bit buffer: k >= 32, quotient 63 - k.
        const std::size_t block = rng() % body.block_params.size();
        const auto k = static_cast<unsigned>(32 + rng() % (spec::kMaxResidualParam - 31));
        const std::size_t first = block * spec::kBlock;
        const std::size_t len = std::min(spec::kBlock, body.residuals.size() - first);
        body.block_params[block] = k;
        body.residuals[first + rng() % len] = {std::uint64_t{63 - k} << k | rng() >> (64 - k),
                                               false};
        expect = Expect::kEither;  // Another sample value.
        break;
      }
      default:  // One flipped bit anywhere in the stream.
        flip_bit = 1 + rng();
        expect = Expect::kEither;
        break;
    }
    Bytes vector = spec::write(body);
    if (flip_bit != 0) {
      // Coding byte, count (1 or 2 bytes up to 4096), levels, bitmap.
      const std::size_t header = 1 + (body.count < 128 ? 1 : 2) + 1 + body.bitmap.size();
      const std::size_t bit = 8 * header + (flip_bit - 1) % (8 * (vector.size() - header));
      vector[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    std::vector<double> out;
    const bool ok = decode_both(vector, out);
    accepted += ok;
    if (expect == Expect::kSame) {
      ASSERT_TRUE(ok) << "iteration " << i;
      EXPECT_TRUE(same_bits(out, sample.signal)) << "iteration " << i;
    } else if (expect == Expect::kReject) {
      EXPECT_FALSE(ok) << "iteration " << i;
    }
  }
  EXPECT_GT(accepted, kStructuredIterations / 3);
}

}  // namespace
}  // namespace wbsn::net
