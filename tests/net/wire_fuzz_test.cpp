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

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "host/payload_pool.hpp"
#include "net/crc32c.hpp"
#include "net/wire_format.hpp"

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
  SnapshotPayload snapshot;
  accepted += decode_snapshot(payload, snapshot);

  std::uint8_t flags = 0;
  std::vector<host::CompressedWindow> windows;
  if (decode_submit_batch(payload, flags, windows, pool)) {
    ++accepted;
    for (const auto& w : windows) {
      EXPECT_LE(w.measurements.size(), w.window_samples);
      EXPECT_LE(w.window_samples, kMaxWindowSamples);
    }
  }
  std::vector<SubmitBatchAckEntry> acks;
  accepted += decode_submit_batch_ack(payload, acks);
  std::uint32_t max_results = 0;
  accepted += decode_poll_many(payload, max_results);
  std::vector<host::WindowResult> results;
  if (decode_result_batch(payload, results, pool)) {
    ++accepted;
    for (const auto& r : results) {
      EXPECT_LE(r.signal.size(), std::max<std::size_t>(kMaxWindowSamples, payload.size() / 8));
      tally.long_signals += r.signal.size() == 512;
    }
  }
  std::uint64_t epoch = 0;
  std::uint32_t max_entries = 0;
  accepted += decode_cr_hint(payload, epoch, max_entries);
  CrHintAckPayload hint_ack;
  accepted += decode_cr_hint_ack(payload, hint_ack);
  std::uint64_t nonce = 0;
  accepted += decode_health(payload, nonce);
  HealthAckPayload health_ack;
  accepted += decode_health_ack(payload, health_ack);
  WireReader r(payload);
  std::vector<double> values;
  accepted += decode_values(r, values);
}

TEST(Fuzz, MutatedGoldenFramesNeverCrashTheDecoders) {
  const auto corpus = load_corpus();
  ASSERT_GE(corpus.size(), 15u) << "golden corpus missing from " << WBSN_GOLDEN_FRAME_DIR;
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

}  // namespace
}  // namespace wbsn::net
