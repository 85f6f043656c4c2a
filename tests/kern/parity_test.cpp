// Randomized dispatch-parity property tests: the scalar and AVX2 backends
// must produce bit-identical doubles for every kernel, for every size
// (vector bodies AND tails).  This is the test behind the engine's
// determinism-across-dispatch contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "cs/fista.hpp"
#include "cs/sensing_matrix.hpp"
#include "dsp/wavelet.hpp"
#include "kern/backend.hpp"
#include "sig/rng.hpp"

namespace wbsn::kern {
namespace {

class BackendGuard {
 public:
  BackendGuard() : previous_(active_backend()) {}
  ~BackendGuard() { set_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<double> random_vector(std::size_t n, sig::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// Sizes exercising empty input, pure tails, and vector bodies + tails.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 64, 67, 512};

#define REQUIRE_AVX2()                                            \
  if (!avx2_supported()) {                                        \
    GTEST_SKIP() << "AVX2 unavailable on this host/build";        \
  }

TEST(DispatchParity, Reductions) {
  REQUIRE_AVX2();
  const Ops& scalar = *scalar_ops();
  const Ops& avx2 = *avx2_ops();
  sig::Rng rng(1);
  for (const std::size_t n : kSizes) {
    const auto x = random_vector(n, rng);
    const auto y = random_vector(n, rng);
    EXPECT_TRUE(bit_identical(scalar.dot(x.data(), y.data(), n),
                              avx2.dot(x.data(), y.data(), n)))
        << "dot n=" << n;
    EXPECT_TRUE(bit_identical(scalar.nrm2_sq(x.data(), n), avx2.nrm2_sq(x.data(), n)))
        << "nrm2_sq n=" << n;
  }
}

TEST(DispatchParity, Elementwise) {
  REQUIRE_AVX2();
  const Ops& scalar = *scalar_ops();
  const Ops& avx2 = *avx2_ops();
  sig::Rng rng(2);
  for (const std::size_t n : kSizes) {
    const auto x = random_vector(n, rng);
    auto y_a = random_vector(n, rng);
    auto y_b = y_a;

    scalar.axpy(0.37, x.data(), y_a.data(), n);
    avx2.axpy(0.37, x.data(), y_b.data(), n);
    EXPECT_TRUE(bit_identical(y_a, y_b)) << "axpy n=" << n;

    scalar.xpby(x.data(), -1.13, y_a.data(), n);
    avx2.xpby(x.data(), -1.13, y_b.data(), n);
    EXPECT_TRUE(bit_identical(y_a, y_b)) << "xpby n=" << n;
  }
}

/// Inputs of one fused-FISTA-step call.
struct FistaStepCase {
  std::size_t n = 0;
  double tau = 0.0;
  std::vector<double> grad, z, a;
};

constexpr double kStepInvLip = 1.0 / 3.7;
constexpr double kStepBeta = 0.81;

/// Random inputs salted with the edge cases of the soft threshold: exact
/// ±0 everywhere, v = z - grad * inv_lip landing exactly on ±tau (grad = 0,
/// z = ±tau), values just inside the threshold (whose result is a signed
/// zero carrying v's sign bit), and a_{k-1} = ±0.  `salt` rotates which
/// element gets which edge case, so small n still meets all of them.
FistaStepCase fista_step_case(std::size_t n, std::size_t salt, sig::Rng& rng) {
  FistaStepCase c;
  c.n = n;
  c.grad = random_vector(n, rng);
  c.z = random_vector(n, rng);
  c.a = random_vector(n, rng);
  c.tau = std::abs(rng.normal()) + 0.1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + salt;
    switch (j % 7) {
      case 0:
        c.grad[i] = 0.0;
        c.z[i] = (j & 8) ? -c.tau : c.tau;
        break;
      case 1:
        c.grad[i] = (j & 8) ? -0.0 : 0.0;
        c.z[i] = (j & 16) ? -0.0 : 0.0;
        break;
      case 2:
        c.grad[i] *= 1e-3;
        c.z[i] *= 1e-3;
        break;
      case 3:
        c.a[i] = (j & 8) ? -0.0 : 0.0;
        break;
      default:
        break;
    }
  }
  return c;
}

/// Output of one fista_step call: the updated z and a plus the sums.
struct FistaStepOut {
  std::vector<double> z, a;
  double delta = -1.0;
  double scale = -1.0;
};

FistaStepOut run_fista_step(const Ops& table, const FistaStepCase& c) {
  FistaStepOut out{c.z, c.a};
  table.fista_step(c.grad.data(), kStepInvLip, c.tau, kStepBeta, c.n, out.z.data(),
                   out.a.data(), &out.delta, &out.scale);
  return out;
}

TEST(DispatchParity, FistaStepIncludingSignedZerosAndTauBoundary) {
  // The reciprocal step (multiply by 1/L), scalar against AVX2: n = 1..9
  // and 127 run the scalar tail after (or instead of) the vector body.
  REQUIRE_AVX2();
  sig::Rng rng(3);
  std::vector<std::size_t> sizes = {127, 128, 512};
  for (std::size_t n = 1; n <= 9; ++n) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    for (std::size_t salt = 0; salt < 32; ++salt) {
      const auto c = fista_step_case(n, salt, rng);
      const auto s = run_fista_step(*scalar_ops(), c);
      const auto v = run_fista_step(*avx2_ops(), c);
      EXPECT_TRUE(bit_identical(s.z, v.z)) << "z n=" << n << " salt=" << salt;
      EXPECT_TRUE(bit_identical(s.a, v.a)) << "a n=" << n << " salt=" << salt;
      EXPECT_TRUE(bit_identical(s.delta, v.delta)) << "delta n=" << n << " salt=" << salt;
      EXPECT_TRUE(bit_identical(s.scale, v.scale)) << "scale n=" << n << " salt=" << salt;
    }
  }
}

TEST(DispatchParity, Momentum) {
  REQUIRE_AVX2();
  const Ops& scalar = *scalar_ops();
  const Ops& avx2 = *avx2_ops();
  sig::Rng rng(4);
  for (const std::size_t n : kSizes) {
    const auto a = random_vector(n, rng);
    const auto a_prev = random_vector(n, rng);
    std::vector<double> z_a(n);
    std::vector<double> z_b(n);
    double d_a = -1.0;
    double s_a = -1.0;
    double d_b = -2.0;
    double s_b = -2.0;
    scalar.momentum(a.data(), a_prev.data(), z_a.data(), 0.81, n, &d_a, &s_a);
    avx2.momentum(a.data(), a_prev.data(), z_b.data(), 0.81, n, &d_b, &s_b);
    EXPECT_TRUE(bit_identical(z_a, z_b)) << "momentum z n=" << n;
    EXPECT_TRUE(bit_identical(d_a, d_b)) << "momentum delta n=" << n;
    EXPECT_TRUE(bit_identical(s_a, s_b)) << "momentum scale n=" << n;
  }
}

TEST(DispatchParity, FistaStepMatchesUnfusedSteps) {
  // Runs on every available backend: the fused step must equal the
  // unfused sequence it replaces — the gradient step z + (-1/L) * grad
  // (axpy: the same product, so the same bits as z - grad * (1/L)), the
  // soft threshold, then momentum against a_{k-1}.
  for (const Ops* table : {scalar_ops(), avx2_ops()}) {
    if (table == nullptr || (table == avx2_ops() && !avx2_supported())) continue;
    sig::Rng rng(5);
    for (const std::size_t n : {1u, 5u, 67u, 128u}) {
      const auto c = fista_step_case(n, n, rng);
      const auto fused = run_fista_step(*table, c);

      std::vector<double> a_new = c.z;
      table->axpy(-kStepInvLip, c.grad.data(), a_new.data(), n);
      for (auto& v : a_new) {
        const double mag = std::fabs(v) - c.tau;
        v = std::copysign(mag > 0.0 ? mag : 0.0, v);
      }
      std::vector<double> z_new(n);
      double d = 0.0;
      double s = 0.0;
      table->momentum(a_new.data(), c.a.data(), z_new.data(), kStepBeta, n, &d, &s);

      EXPECT_TRUE(bit_identical(fused.a, a_new)) << table->name << " n=" << n;
      EXPECT_TRUE(bit_identical(fused.z, z_new)) << table->name << " n=" << n;
      EXPECT_TRUE(bit_identical(fused.delta, d)) << table->name << " n=" << n;
      EXPECT_TRUE(bit_identical(fused.scale, s)) << table->name << " n=" << n;
    }
  }
}

TEST(DispatchParity, SensingMatrixApplyAdjoint) {
  REQUIRE_AVX2();
  BackendGuard guard;
  sig::Rng mrng(6);
  sig::Rng xrng(7);
  // d = 4 (the fixed-weight adjoint loop) and d = 8 (the entry-list
  // loop): the operator's bits must not depend on the backend.
  const auto d4 = cs::SensingMatrix::make_sparse_binary(100, 256, 4, mrng);
  const auto d8 = cs::SensingMatrix::make_sparse_binary(24, 64, 8, mrng);
  for (const auto* phi : {&d4, &d8}) {
    const auto x = random_vector(phi->cols(), xrng);
    const auto y = random_vector(phi->rows(), xrng);

    ASSERT_TRUE(set_backend(Backend::kScalar));
    const auto ax_scalar = phi->apply(x);
    const auto aty_scalar = phi->apply_adjoint(y);
    ASSERT_TRUE(set_backend(Backend::kAvx2));
    const auto ax_avx2 = phi->apply(x);
    const auto aty_avx2 = phi->apply_adjoint(y);

    EXPECT_TRUE(bit_identical(ax_scalar, ax_avx2));
    EXPECT_TRUE(bit_identical(aty_scalar, aty_avx2));
  }
}

TEST(DispatchParity, DwtForwardInverse) {
  REQUIRE_AVX2();
  BackendGuard guard;
  sig::Rng rng(8);
  for (const std::size_t n : {8u, 16u, 64u, 256u, 512u}) {
    const auto x = random_vector(n, rng);
    const int levels = dsp::dwt_max_levels(n);

    ASSERT_TRUE(set_backend(Backend::kScalar));
    const auto coeffs_scalar = dsp::dwt_forward(x, levels);
    const auto back_scalar = dsp::dwt_inverse(coeffs_scalar, levels);
    ASSERT_TRUE(set_backend(Backend::kAvx2));
    const auto coeffs_avx2 = dsp::dwt_forward(x, levels);
    const auto back_avx2 = dsp::dwt_inverse(coeffs_avx2, levels);

    EXPECT_TRUE(bit_identical(coeffs_scalar, coeffs_avx2)) << "forward n=" << n;
    EXPECT_TRUE(bit_identical(back_scalar, back_avx2)) << "inverse n=" << n;
  }
}

/// x in split order: the even samples, then the odd ones.
std::vector<double> to_split(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  for (std::size_t c = 0; c < x.size(); ++c) out[(c & 1) * (x.size() / 2) + c / 2] = x[c];
  return out;
}

TEST(SplitDwt, MatchesNaturalCascadeOnEveryBackend) {
  // The split cascades (finest level on split-order samples) against the
  // natural ones, bit for bit: every even n from 16 to 1024 and every
  // legal level count, on the scalar reference and on AVX2.
  BackendGuard guard;
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (!set_backend(backend)) continue;
    sig::Rng rng(11);
    for (std::size_t n = 16; n <= 1024; n += 2) {
      const auto x = random_vector(n, rng);
      const auto x_split = to_split(x);
      for (int levels = 1; levels <= dsp::dwt_max_levels(n); ++levels) {
        std::vector<double> coeffs(n);
        std::vector<double> coeffs_split(n);
        std::vector<double> scratch(n);
        dsp::dwt_forward_into(x, levels, coeffs, scratch);
        dsp::dwt_forward_split_into(x_split, levels, coeffs_split, scratch);
        EXPECT_TRUE(bit_identical(coeffs, coeffs_split))
            << backend_name() << " forward n=" << n << " levels=" << levels;

        std::vector<double> back(n);
        std::vector<double> back_split(n);
        dsp::dwt_inverse_into(coeffs, levels, back, scratch);
        dsp::dwt_inverse_split_into(coeffs, levels, back_split, scratch);
        EXPECT_TRUE(bit_identical(to_split(back), back_split))
            << backend_name() << " inverse n=" << n << " levels=" << levels;
      }
    }
  }
}

TEST(DispatchParity, SplitDwtSteps) {
  // The split step kernels themselves, scalar against AVX2: sizes below
  // the vector cutover, pure vector bodies and bodies with tails.
  REQUIRE_AVX2();
  const Ops& scalar = *scalar_ops();
  const Ops& avx2 = *avx2_ops();
  sig::Rng rng(12);
  for (std::size_t n = 2; n <= 80; n += 2) {
    const std::size_t half = n / 2;
    const auto x = random_vector(n, rng);
    std::vector<double> a_s(half);
    std::vector<double> d_s(half);
    std::vector<double> a_v(half);
    std::vector<double> d_v(half);
    scalar.dwt_step_split(x.data(), n, a_s.data(), d_s.data());
    avx2.dwt_step_split(x.data(), n, a_v.data(), d_v.data());
    EXPECT_TRUE(bit_identical(a_s, a_v)) << "forward approx n=" << n;
    EXPECT_TRUE(bit_identical(d_s, d_v)) << "forward detail n=" << n;

    std::vector<double> x_s(n);
    std::vector<double> x_v(n);
    scalar.idwt_step_split(a_s.data(), d_s.data(), half, x_s.data());
    avx2.idwt_step_split(a_s.data(), d_s.data(), half, x_v.data());
    EXPECT_TRUE(bit_identical(x_s, x_v)) << "inverse n=" << n;
  }
}

/// End-to-end: full FISTA reconstructions must be bit-identical across
/// backends — the property the host engine's determinism contract rests
/// on.
TEST(DispatchParity, FistaEndToEndAcrossBackends) {
  REQUIRE_AVX2();
  BackendGuard guard;
  sig::Rng rng(10);
  const std::size_t n = 128;
  const std::size_t m = 64;
  const auto phi = cs::SensingMatrix::make_sparse_binary(m, n, 4, rng);

  constexpr std::size_t kWindows = 8;
  std::vector<std::vector<double>> ys(kWindows);
  for (auto& y : ys) {
    // Measurements of random sparse-ish signals (varied sparsity so the
    // windows converge after different iteration counts).
    auto x = random_vector(n, rng);
    for (std::size_t i = 0; i < n; i += 2) x[i] *= 0.05;
    y = phi.apply(x);
  }

  cs::FistaConfig cfg;
  cfg.max_iterations = 60;
  cfg.debias_iterations = 8;

  ASSERT_TRUE(set_backend(Backend::kScalar));
  std::vector<cs::FistaResult> expected;
  for (const auto& y : ys) expected.push_back(cs::fista_reconstruct(phi, y, cfg));

  ASSERT_TRUE(set_backend(Backend::kAvx2));
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto result = cs::fista_reconstruct(phi, ys[w], cfg);
    EXPECT_EQ(result.iterations_run, expected[w].iterations_run) << "window " << w;
    EXPECT_TRUE(bit_identical(result.signal, expected[w].signal)) << "window " << w;
    EXPECT_TRUE(bit_identical(result.coefficients, expected[w].coefficients))
        << "window " << w;
  }
}

}  // namespace
}  // namespace wbsn::kern
