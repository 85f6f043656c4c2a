// Golden digests of the solver's output bits.  Each case hashes every
// reconstructed sample and the iteration count (FNV-1a, 64-bit) and
// compares against a digest recorded from the reference implementation.
// A kernel rewrite that claims to compute the same expressions in the
// same order must leave every digest unchanged, on every backend: the
// scalar and AVX2 kernels are bit-identical by contract, so one digest
// per case covers both (ctest runs this suite under both dispatches).
#include "cs/fista.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cs/pipeline.hpp"
#include "cs/sensing_matrix.hpp"
#include "sig/adc.hpp"
#include "sig/ecg_synth.hpp"

namespace wbsn::cs {
namespace {

class Fnv1a {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  void add(const std::vector<double>& v) { add(v.data(), v.size() * sizeof(double)); }
  void add(int v) {
    const auto x = static_cast<std::int64_t>(v);
    add(&x, sizeof(x));
  }
  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// `count` consecutive single-lead windows of `n` samples from one seeded
/// low-noise ECG record.
std::vector<std::vector<double>> ecg_windows(std::size_t n, std::size_t count,
                                             std::uint64_t seed) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 40}};
  synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
  sig::Rng rng(seed);
  const auto rec = sig::synthesize_ecg(synth, rng);
  std::vector<std::vector<double>> out;
  for (std::size_t w = 0; w < count; ++w) {
    const auto begin = rec.leads[0].begin() + static_cast<long>(w * n);
    out.emplace_back(begin, begin + static_cast<long>(n));
  }
  return out;
}

/// Node-side encode of each window (ADC quantization + sensing), as the
/// production pipeline delivers measurements to the solver.
std::vector<std::vector<double>> encode(const SensingMatrix& phi,
                                        const std::vector<std::vector<double>>& windows) {
  std::vector<std::vector<double>> ys;
  for (const auto& x : windows) ys.push_back(encode_window(phi, x, sig::AdcConfig{}).measurements);
  return ys;
}

SensingMatrix seeded_matrix(double cr_percent, std::size_t n, std::uint64_t seed) {
  sig::Rng rng(seed);
  return SensingMatrix::make_sparse_binary(rows_for_cr(cr_percent, n), n, 4, rng);
}

TEST(FistaGolden, SteadyWindowsDefaultConfig) {
  // The steady workload's shape: 512 samples, CR 50, default config
  // (convergence stop and debias on).
  const auto phi = seeded_matrix(50.0, 512, 101);
  const auto ys = encode(phi, ecg_windows(512, 8, 11));
  Fnv1a digest;
  for (const auto& y : ys) {
    const auto r = fista_reconstruct(phi, y, FistaConfig{});
    digest.add(r.signal);
    digest.add(r.iterations_run);
  }
  EXPECT_EQ(digest.hex(), "0xebe414f42a41481a");
}

TEST(FistaGolden, WireBoundWindowsOneIterationNoDebias) {
  // The wire-bound workload's shape: 128 samples, CR 75, one iteration.
  const auto phi = seeded_matrix(75.0, 128, 202);
  const auto ys = encode(phi, ecg_windows(128, 8, 22));
  FistaConfig cfg;
  cfg.max_iterations = 1;
  cfg.debias_iterations = 0;
  Fnv1a digest;
  for (const auto& y : ys) {
    const auto r = fista_reconstruct(phi, y, cfg);
    digest.add(r.signal);
    digest.add(r.iterations_run);
  }
  EXPECT_EQ(digest.hex(), "0x9ccbd5062a5baa25");
}

TEST(FistaGolden, BatchOfFiveDefaultConfig) {
  // Five windows of one matrix that converge at different iterations,
  // solved one after another.
  const auto phi = seeded_matrix(50.0, 512, 303);
  const auto ys = encode(phi, ecg_windows(512, 5, 33));
  Fnv1a digest;
  for (const auto& y : ys) {
    const auto r = fista_reconstruct(phi, y, FistaConfig{});
    digest.add(r.signal);
    digest.add(r.iterations_run);
  }
  EXPECT_EQ(digest.hex(), "0x7a3e04f9a17a58af");
}

TEST(FistaGolden, GroupSolveThreeLeads) {
  sig::SynthConfig synth;
  synth.num_leads = 3;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 4}};
  synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
  sig::Rng rng(44);
  const auto rec = sig::synthesize_ecg(synth, rng);
  const auto phi = seeded_matrix(50.0, 256, 404);
  std::vector<std::vector<double>> windows;
  for (const auto& lead : rec.leads) windows.emplace_back(lead.begin(), lead.begin() + 256);
  const std::vector<SensingMatrix> phis(windows.size(), phi);
  const auto r = group_fista_reconstruct_multi(phis, encode(phi, windows), FistaConfig{});
  Fnv1a digest;
  for (const auto& s : r.signals) digest.add(s);
  digest.add(r.iterations_run);
  EXPECT_EQ(digest.hex(), "0x753634eb1883d4a8");
}

}  // namespace
}  // namespace wbsn::cs
