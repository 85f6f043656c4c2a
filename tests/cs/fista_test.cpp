#include "cs/fista.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cs/pipeline.hpp"
#include "dsp/wavelet.hpp"
#include "sig/ecg_synth.hpp"

namespace wbsn::cs {
namespace {

/// A synthetic exactly-sparse signal in the wavelet domain.
std::vector<double> sparse_signal(std::size_t n, int levels, int nonzeros, sig::Rng& rng) {
  std::vector<double> coeffs(n, 0.0);
  for (int i = 0; i < nonzeros; ++i) {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    coeffs[idx] = rng.normal(0.0, 2.0);
  }
  return dsp::dwt_inverse(coeffs, levels);
}

TEST(Fista, RecoversExactlySparseSignal) {
  sig::Rng rng(1);
  const std::size_t n = 256;
  const auto x = sparse_signal(n, 4, 10, rng);
  const auto phi = SensingMatrix::make_sparse_binary(100, n, 4, rng);
  const auto y = phi.apply(x);
  FistaConfig cfg;
  cfg.dwt_levels = 4;
  cfg.max_iterations = 400;
  cfg.lambda_rel = 0.002;
  const auto result = fista_reconstruct(phi, y, cfg);
  EXPECT_GT(reconstruction_snr_db(x, result.signal), 25.0);
}

TEST(Fista, MoreMeasurementsGiveBetterSnr) {
  sig::Rng rng(2);
  const std::size_t n = 256;
  const auto x = sparse_signal(n, 4, 12, rng);
  double prev_snr = -100.0;
  for (std::size_t m : {40u, 80u, 160u}) {
    sig::Rng mrng(99);
    const auto phi = SensingMatrix::make_sparse_binary(m, n, 4, mrng);
    const auto y = phi.apply(x);
    FistaConfig cfg;
    cfg.dwt_levels = 4;
    const auto result = fista_reconstruct(phi, y, cfg);
    const double snr = reconstruction_snr_db(x, result.signal);
    EXPECT_GT(snr, prev_snr) << m;
    prev_snr = snr;
  }
}

TEST(Fista, EcgWindowAt50PercentCrIsGood) {
  sig::SynthConfig scfg;
  scfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 10}};
  scfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(3);
  const auto rec = synthesize_ecg(scfg, rng);
  std::vector<double> x(rec.leads[0].begin(), rec.leads[0].begin() + 512);
  const auto phi = SensingMatrix::make_sparse_binary(256, 512, 4, rng);
  const auto y = phi.apply(x);
  const auto result = fista_reconstruct(phi, y, FistaConfig{});
  EXPECT_GT(reconstruction_snr_db(x, result.signal), 20.0);
}

TEST(Fista, StopsEarlyOnConvergence) {
  sig::Rng rng(4);
  const std::size_t n = 128;
  const auto x = sparse_signal(n, 3, 4, rng);
  const auto phi = SensingMatrix::make_sparse_binary(80, n, 4, rng);
  const auto y = phi.apply(x);
  FistaConfig cfg;
  cfg.dwt_levels = 3;
  cfg.max_iterations = 2000;
  cfg.tolerance = 1e-5;
  const auto result = fista_reconstruct(phi, y, cfg);
  EXPECT_LT(result.iterations_run, 2000);
}

TEST(Fista, DefaultToleranceStopsSteadyWindowsWithinFig5Margin) {
  // Steady-shaped windows: synthesized ECG, ADC-quantized 512-sample
  // windows, scored against the dequantized reference.  Under the default
  // config the stopping test must fire (mean iterations below the budget),
  // and what it saves must cost under 0.25 dB against the same solve run
  // to the budget (tolerance 0), at every CR across the Figure-5 range.
  // The margin bounds the mean, as Figure 5 does: single windows scatter
  // by up to about +-0.5 dB at CR 70, so the mean takes 24 windows.
  sig::SynthConfig scfg;
  scfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 64}};
  scfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
  sig::Rng rng(8);
  const auto rec = synthesize_ecg(scfg, rng);
  constexpr std::size_t kWindow = 512;
  constexpr std::size_t kWindows = 24;
  ASSERT_GE(rec.leads[0].size(), kWindow * kWindows);

  const FistaConfig production;
  FistaConfig exhaustive = production;
  exhaustive.tolerance = 0.0;
  for (const double cr : {30.0, 50.0, 70.0, 85.0}) {
    sig::Rng matrix_rng(0xC0FFEE);
    const auto phi =
        SensingMatrix::make_sparse_binary(rows_for_cr(cr, kWindow), kWindow, 4, matrix_rng);
    std::vector<std::vector<double>> ys;
    std::vector<std::vector<double>> refs;
    for (std::size_t w = 0; w < kWindows; ++w) {
      const std::span<const double> window(rec.leads[0].data() + w * kWindow, kWindow);
      auto encoded = encode_window(phi, window, sig::AdcConfig{});
      ys.push_back(std::move(encoded.measurements));
      refs.push_back(std::move(encoded.reference));
    }
    double iterations = 0.0;
    double snr_stopped = 0.0;
    double snr_full = 0.0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      const auto stopped = fista_reconstruct(phi, ys[w], production);
      const auto full = fista_reconstruct(phi, ys[w], exhaustive);
      EXPECT_EQ(full.iterations_run, production.max_iterations);
      iterations += stopped.iterations_run;
      snr_stopped += reconstruction_snr_db(refs[w], stopped.signal);
      snr_full += reconstruction_snr_db(refs[w], full.signal);
    }
    const auto count = static_cast<double>(kWindows);
    EXPECT_LT(iterations / count, production.max_iterations) << "CR " << cr;
    EXPECT_GT(snr_stopped / count, snr_full / count - 0.25) << "CR " << cr;
  }
}

TEST(GroupFista, JointBeatsIndependentAtHighCr) {
  // The Figure-5 mechanism: leads share wavelet support, so joint recovery
  // tolerates higher CR.  Compare on a 3-lead record at CR = 75 %.
  sig::SynthConfig scfg;
  scfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 20}};
  scfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(5);
  const auto rec = synthesize_ecg(scfg, rng);

  CsPipelineConfig cfg;
  const auto joint = run_multi_lead_cs(rec, 75.0, cfg);
  const auto indep = run_independent_leads_cs(rec, 75.0, cfg);
  EXPECT_GT(joint.mean_snr_db, indep.mean_snr_db + 1.0);
}

TEST(Omp, RecoversVerySparseSignal) {
  sig::Rng rng(6);
  const std::size_t n = 128;
  const auto x = sparse_signal(n, 3, 5, rng);
  const auto phi = SensingMatrix::make_sparse_binary(64, n, 4, rng);
  const auto y = phi.apply(x);
  OmpConfig cfg;
  cfg.dwt_levels = 3;
  cfg.max_atoms = 16;
  const auto xhat = omp_reconstruct(phi, y, cfg);
  EXPECT_GT(reconstruction_snr_db(x, xhat), 40.0);
}

TEST(Metrics, SnrOfExactCopyIsHuge) {
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_GE(reconstruction_snr_db(x, x), 140.0);
}

TEST(Metrics, KnownSnrCase) {
  // Error of exactly 10% RMS -> SNR = 20 dB, PRD = 10 %.
  std::vector<double> x(100);
  std::vector<double> xhat(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x[i] = std::sin(0.2 * static_cast<double>(i));
  }
  double energy = 0.0;
  for (double v : x) energy += v * v;
  // Perturb a single sample so the error energy is 1% of signal energy.
  xhat = x;
  xhat[50] += std::sqrt(0.01 * energy);
  EXPECT_NEAR(reconstruction_snr_db(x, xhat), 20.0, 1e-6);
  EXPECT_NEAR(prd_percent(x, xhat), 10.0, 1e-6);
}

TEST(Metrics, SnrSymmetricScale) {
  std::vector<double> x(64);
  for (std::size_t i = 0; i < 64; ++i) x[i] = std::cos(0.1 * static_cast<double>(i));
  std::vector<double> xhat = x;
  for (double& v : xhat) v *= 1.01;  // 1% multiplicative error -> 40 dB.
  EXPECT_NEAR(reconstruction_snr_db(x, xhat), 40.0, 0.2);
}

TEST(CrAtSnr, InterpolatesCrossing) {
  const std::vector<double> crs = {50.0, 60.0, 70.0, 80.0};
  const std::vector<double> snrs = {30.0, 25.0, 15.0, 8.0};
  // 20 dB crossing between CR 60 and 70 -> 65.
  EXPECT_NEAR(cr_at_snr(crs, snrs, 20.0), 65.0, 0.01);
}

TEST(CrAtSnr, AllAboveTargetReturnsLastCr) {
  const std::vector<double> crs = {50.0, 60.0};
  const std::vector<double> snrs = {30.0, 25.0};
  EXPECT_NEAR(cr_at_snr(crs, snrs, 20.0), 60.0, 1e-9);
}

}  // namespace
}  // namespace wbsn::cs
