#include "dsp/wavelet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "kern/backend.hpp"
#include "sig/adc.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::dsp {
namespace {

TEST(DwtMaxLevels, CountsEvenHalvings) {
  // A step is allowed while the current length is even and >= 4 (the
  // periodized 4-tap filters stay well-posed down to length 2).
  EXPECT_EQ(dwt_max_levels(512), 8);  // 512 -> 2.
  EXPECT_EQ(dwt_max_levels(256), 7);
  EXPECT_EQ(dwt_max_levels(4), 1);
  EXPECT_EQ(dwt_max_levels(3), 0);
  EXPECT_EQ(dwt_max_levels(6), 1);  // 6 -> 3 (odd) stops further splits.
  EXPECT_EQ(dwt_max_levels(0), 0);
}

TEST(Dwt, PerfectReconstructionRandom) {
  sig::Rng rng(1);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.normal();
  for (int levels : {1, 3, 5}) {
    const auto coeffs = dwt_forward(x, levels);
    const auto back = dwt_inverse(coeffs, levels);
    ASSERT_EQ(back.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-10) << "levels=" << levels << " i=" << i;
    }
  }
}

TEST(Dwt, ZeroLevelsIsIdentity) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(dwt_forward(x, 0), x);
  EXPECT_EQ(dwt_inverse(x, 0), x);
}

/// The level cascade as first written: each level runs in `out` and copies
/// its output back from a full-length scratch.  The copy-free cascade
/// in dsp::dwt_*_into must reproduce it bit for bit.
std::vector<double> forward_copy_per_level(const std::vector<double>& x, int levels) {
  const auto& k = kern::ops();
  std::vector<double> out = x;
  std::vector<double> scratch(x.size());
  std::size_t len = x.size();
  for (int level = 0; level < levels; ++level) {
    const std::size_t half = len / 2;
    k.dwt_step(out.data(), len, scratch.data(), scratch.data() + half);
    std::copy(scratch.begin(), scratch.begin() + static_cast<long>(len), out.begin());
    len = half;
  }
  return out;
}

std::vector<double> inverse_copy_per_level(const std::vector<double>& coeffs, int levels) {
  const auto& k = kern::ops();
  std::vector<double> out = coeffs;
  std::vector<double> scratch(coeffs.size());
  std::size_t len = coeffs.size() >> levels;
  for (int level = 0; level < levels; ++level) {
    const std::size_t full = 2 * len;
    k.idwt_step(out.data(), out.data() + len, len, scratch.data());
    std::copy(scratch.begin(), scratch.begin() + static_cast<long>(full), out.begin());
    len = full;
  }
  return out;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Dwt, CopyFreeCascadeMatchesCopyPerLevelReference) {
  // Every level count, on every available backend, with `scratch` exactly
  // n long and pre-filled with garbage the cascade must not read.
  const kern::Backend previous = kern::active_backend();
  for (const kern::Backend backend : {kern::Backend::kScalar, kern::Backend::kAvx2}) {
    if (!kern::set_backend(backend)) continue;
    sig::Rng rng(9);
    for (const std::size_t n : {8u, 64u, 128u, 512u}) {
      for (int levels = 0; levels <= dwt_max_levels(n); ++levels) {
        std::vector<double> x(n);
        for (auto& v : x) v = rng.normal();
        const auto fwd_ref = forward_copy_per_level(x, levels);
        const auto inv_ref = inverse_copy_per_level(x, levels);
        const auto nan = std::numeric_limits<double>::quiet_NaN();
        std::vector<double> scratch(n, nan);
        std::vector<double> fwd(n, nan);
        std::vector<double> inv(n, nan);
        dwt_forward_into(x, levels, fwd, scratch);
        dwt_inverse_into(x, levels, inv, scratch);
        EXPECT_TRUE(bit_identical(fwd, fwd_ref))
            << kern::backend_name() << " forward n=" << n << " L=" << levels;
        EXPECT_TRUE(bit_identical(inv, inv_ref))
            << kern::backend_name() << " inverse n=" << n << " L=" << levels;
      }
    }
  }
  kern::set_backend(previous);
}

TEST(Dwt, ParsevalEnergyPreserved) {
  sig::Rng rng(2);
  std::vector<double> x(512);
  for (auto& v : x) v = rng.normal();
  const auto coeffs = dwt_forward(x, 5);
  const auto energy = [](const std::vector<double>& v) {
    return std::inner_product(v.begin(), v.end(), v.begin(), 0.0);
  };
  EXPECT_NEAR(energy(coeffs), energy(x), 1e-8);
}

TEST(Dwt, ConstantSignalConcentratesInApprox) {
  std::vector<double> x(128, 1.0);
  const int levels = 3;
  const auto coeffs = dwt_forward(x, levels);
  const std::size_t approx_len = x.size() >> levels;
  double detail_energy = 0.0;
  for (std::size_t i = approx_len; i < coeffs.size(); ++i) {
    detail_energy += coeffs[i] * coeffs[i];
  }
  EXPECT_LT(detail_energy, 1e-16);
}

TEST(Dwt, LinearRampHasNoDetail) {
  // Db4 has two vanishing moments: linear signals map to zero detail
  // (up to the periodic wrap-around samples).
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const auto coeffs = dwt_forward(x, 1);
  // Interior detail coefficients vanish; wrap-around ones don't.
  for (std::size_t k = 2; k + 2 < 32; ++k) {
    EXPECT_NEAR(coeffs[32 + k], 0.0, 1e-10) << k;
  }
}

TEST(Dwt, EcgIsCompressibleInBasis) {
  // The premise of CS recovery (Fig. 5): ECG is sparse in the wavelet
  // domain.  Check that 10 % of coefficients carry > 95 % of the energy.
  sig::SynthConfig cfg;
  cfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 10}};
  cfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(3);
  const auto rec = synthesize_ecg(cfg, rng);
  std::vector<double> x(rec.leads[0].begin(), rec.leads[0].begin() + 2048);
  const auto coeffs = dwt_forward(x, 5);
  std::vector<double> mags;
  mags.reserve(coeffs.size());
  double total = 0.0;
  for (double c : coeffs) {
    mags.push_back(c * c);
    total += c * c;
  }
  std::sort(mags.rbegin(), mags.rend());
  double top = 0.0;
  for (std::size_t i = 0; i < mags.size() / 10; ++i) top += mags[i];
  EXPECT_GT(top / total, 0.95);
}

TEST(SwtSpline, FlatSignalZeroDetail) {
  const std::vector<std::int32_t> x(128, 100);
  const auto result = swt_spline(x, 4);
  ASSERT_EQ(result.detail.size(), 4u);
  for (const auto& scale : result.detail) {
    for (std::int32_t v : scale) EXPECT_EQ(v, 0);
  }
  for (std::int32_t v : result.approx) EXPECT_EQ(v, 100);
}

TEST(SwtSpline, StepProducesAlignedExtremum) {
  // A rising step at position p produces a positive wavelet response whose
  // maximum sits at the step across all scales (time alignment).
  std::vector<std::int32_t> x(256, 0);
  for (std::size_t i = 128; i < 256; ++i) x[i] = 1000;
  const auto result = swt_spline(x, 4);
  for (std::size_t j = 0; j < result.detail.size(); ++j) {
    const auto& d = result.detail[j];
    const auto max_it = std::max_element(d.begin(), d.end());
    const auto pos = static_cast<double>(std::distance(d.begin(), max_it));
    EXPECT_NEAR(pos, 128.0, 2.0 + static_cast<double>(1 << j)) << "scale " << j;
    EXPECT_GT(*max_it, 0);
  }
}

TEST(SwtSpline, RWaveGivesModulusMaximaPair) {
  // A peak (R wave) must produce a +/- modulus-maxima pair around the peak
  // with a zero crossing at it — the delineator's core assumption.
  sig::SynthConfig cfg;
  cfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 5}};
  cfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(4);
  const auto rec = synthesize_ecg(cfg, rng);
  const auto counts = sig::quantize(rec.leads[0], sig::AdcConfig{});
  const auto result = swt_spline(counts, 3);
  const auto& d2 = result.detail[1];  // Scale 2^2.
  for (const auto& beat : rec.beats) {
    const auto r = static_cast<std::size_t>(beat.r_peak);
    // Max positive response before R, max negative after (rising then
    // falling edge of the peak) within +/- 15 samples.
    std::int32_t best_pos = 0;
    std::int32_t best_neg = 0;
    for (std::size_t i = r - 15; i <= r + 15 && i < d2.size(); ++i) {
      if (i < r) best_pos = std::max(best_pos, d2[i]);
      if (i > r) best_neg = std::min(best_neg, d2[i]);
    }
    EXPECT_GT(best_pos, 100) << "beat " << r;
    EXPECT_LT(best_neg, -100) << "beat " << r;
  }
}

TEST(SwtSpline, CoefficientsScaleLinearly) {
  // Linearity: doubling the input doubles every coefficient (exact in
  // integer arithmetic up to rounding of the /8 stages).
  std::vector<std::int32_t> x(128);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::int32_t>(500.0 * std::sin(0.2 * static_cast<double>(i)));
  }
  std::vector<std::int32_t> x2(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x2[i] = 2 * x[i];
  const auto r1 = swt_spline(x, 3);
  const auto r2 = swt_spline(x2, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(static_cast<double>(r2.detail[j][i]),
                  2.0 * static_cast<double>(r1.detail[j][i]), 16.0);
    }
  }
}

TEST(SwtSpline, IsMultiplierFree) {
  // The quadratic-spline filter bank runs on shifts and adds only — the
  // integer "times 3" is add+shift on the node.  Verify the op accounting
  // claims no multiplies or divides.
  const std::vector<std::int32_t> x(256, 10);
  const auto result = swt_spline(x, 4);
  EXPECT_EQ(result.ops.mul, 0u);
  EXPECT_EQ(result.ops.div, 0u);
  EXPECT_GT(result.ops.shift, 0u);
}

}  // namespace
}  // namespace wbsn::dsp
