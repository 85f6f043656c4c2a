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
    const auto z = random_vector(n, rng);
    auto y_a = random_vector(n, rng);
    auto y_b = y_a;

    scalar.axpy(0.37, x.data(), y_a.data(), n);
    avx2.axpy(0.37, x.data(), y_b.data(), n);
    EXPECT_TRUE(bit_identical(y_a, y_b)) << "axpy n=" << n;

    scalar.xpby(x.data(), -1.13, y_a.data(), n);
    avx2.xpby(x.data(), -1.13, y_b.data(), n);
    EXPECT_TRUE(bit_identical(y_a, y_b)) << "xpby n=" << n;

    std::vector<double> a_a(n);
    std::vector<double> a_b(n);
    scalar.grad_step(z.data(), x.data(), 3.7, a_a.data(), n);
    avx2.grad_step(z.data(), x.data(), 3.7, a_b.data(), n);
    EXPECT_TRUE(bit_identical(a_a, a_b)) << "grad_step n=" << n;
  }
}

/// Inputs of one fused-FISTA-step call.
struct FistaStepCase {
  std::size_t n = 0;
  double tau = 0.0;
  std::vector<double> grad, z, a;
};

constexpr double kStepLip = 3.7;
constexpr double kStepBeta = 0.81;

/// Random inputs salted with the edge cases of the soft threshold: exact
/// ±0 everywhere, v = z - grad / lip landing exactly on ±tau (grad = 0,
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
  table.fista_step(c.grad.data(), kStepLip, c.tau, kStepBeta, c.n, out.z.data(),
                   out.a.data(), &out.delta, &out.scale);
  return out;
}

TEST(DispatchParity, FistaStepIncludingSignedZerosAndTauBoundary) {
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
  // unfused sequence it replaces — grad_step, the soft threshold, then
  // momentum against a_{k-1}.
  for (const Ops* table : {scalar_ops(), avx2_ops()}) {
    if (table == nullptr || (table == avx2_ops() && !avx2_supported())) continue;
    sig::Rng rng(5);
    for (const std::size_t n : {1u, 5u, 67u, 128u}) {
      const auto c = fista_step_case(n, n, rng);
      const auto fused = run_fista_step(*table, c);

      std::vector<double> a_new(n);
      table->grad_step(c.z.data(), c.grad.data(), kStepLip, a_new.data(), n);
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
  // Sparse binary (uniform-positive adjoint plan, ragged apply plan) and
  // Bernoulli (dense ±1): exercises the signed and sign-free spmv paths.
  const auto sparse = cs::SensingMatrix::make_sparse_binary(100, 256, 4, mrng);
  const auto dense = cs::SensingMatrix::make_bernoulli(24, 64, mrng);
  for (const auto* phi : {&sparse, &dense}) {
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
