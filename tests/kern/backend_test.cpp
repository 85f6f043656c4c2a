#include "kern/backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "kern/spmv_plan.hpp"
#include "sig/rng.hpp"

namespace wbsn::kern {
namespace {

/// Restores the entry backend when a test that switches backends exits.
class BackendGuard {
 public:
  BackendGuard() : previous_(active_backend()) {}
  ~BackendGuard() { set_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

TEST(Backend, ScalarAlwaysAvailable) {
  BackendGuard guard;
  ASSERT_NE(scalar_ops(), nullptr);
  EXPECT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  EXPECT_STREQ(backend_name(), "scalar");
}

TEST(Backend, Avx2SelectableIffSupported) {
  BackendGuard guard;
  if (avx2_supported()) {
    ASSERT_NE(avx2_ops(), nullptr);
    EXPECT_TRUE(set_backend(Backend::kAvx2));
    EXPECT_EQ(active_backend(), Backend::kAvx2);
    EXPECT_STREQ(backend_name(), "avx2");
  } else {
    EXPECT_FALSE(set_backend(Backend::kAvx2));
    // A failed switch must leave the selection untouched and usable.
    EXPECT_NE(backend_name(), nullptr);
  }
}

TEST(Backend, OpsTableFullyPopulated) {
  for (const Ops* table : {scalar_ops(), avx2_ops()}) {
    if (table == nullptr) continue;  // AVX2 compiled out.
    EXPECT_NE(table->name, nullptr);
    EXPECT_NE(table->dot, nullptr);
    EXPECT_NE(table->nrm2_sq, nullptr);
    EXPECT_NE(table->axpy, nullptr);
    EXPECT_NE(table->xpby, nullptr);
    EXPECT_NE(table->grad_step, nullptr);
    EXPECT_NE(table->momentum, nullptr);
    EXPECT_NE(table->fista_step, nullptr);
    EXPECT_NE(table->spmv, nullptr);
    EXPECT_NE(table->dwt_step, nullptr);
    EXPECT_NE(table->idwt_step, nullptr);
  }
}

// --- Spmv plan construction and evaluation ----------------------------------

SpmvPlan random_plan(std::size_t outputs, std::size_t inputs, std::size_t max_terms,
                     sig::Rng& rng, std::vector<SpmvTerms>* terms_out = nullptr) {
  std::vector<SpmvTerms> terms(outputs);
  for (auto& t : terms) {
    const auto count = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_terms)));
    for (std::size_t i = 0; i < count; ++i) {
      t.emplace_back(
          static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(inputs) - 1)),
          rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
  }
  if (terms_out != nullptr) *terms_out = terms;
  return build_spmv_plan(inputs, terms);
}

/// Naive dense reference of the plan's linear map.
std::vector<double> naive_spmv(const std::vector<SpmvTerms>& terms,
                               const std::vector<double>& x) {
  std::vector<double> y(terms.size(), 0.0);
  for (std::size_t o = 0; o < terms.size(); ++o) {
    for (const auto& [idx, sgn] : terms[o]) y[o] += sgn * x[static_cast<std::size_t>(idx)];
  }
  return y;
}

TEST(SpmvPlan, MatchesNaiveReferenceOnOddShapes) {
  sig::Rng rng(1);
  for (const std::size_t outputs : {1u, 2u, 3u, 4u, 5u, 7u, 33u, 64u}) {
    std::vector<SpmvTerms> terms;
    const std::size_t inputs = 1 + outputs * 2;
    const auto plan = random_plan(outputs, inputs, 9, rng, &terms);
    EXPECT_EQ(plan.num_outputs, outputs);
    EXPECT_EQ(plan.num_inputs, inputs);

    std::vector<double> x(inputs);
    for (auto& v : x) v = rng.normal();
    std::vector<double> y(outputs, -1.0);
    ops().spmv(plan, x.data(), y.data());
    const auto expected = naive_spmv(terms, x);
    for (std::size_t o = 0; o < outputs; ++o) {
      EXPECT_NEAR(y[o], expected[o], 1e-12) << "output " << o << " of " << outputs;
    }
  }
}

TEST(SpmvPlan, UniformPositiveDetection) {
  // 8 outputs x 3 terms, all +1 -> uniform; flipping one sign or dropping
  // one term (creating a pad) clears the flag.
  std::vector<SpmvTerms> terms(8);
  for (auto& t : terms) {
    t = {{0, 1.0}, {1, 1.0}, {2, 1.0}};
  }
  EXPECT_TRUE(build_spmv_plan(4, terms).uniform_positive);

  auto negative = terms;
  negative[5][1].second = -1.0;
  EXPECT_FALSE(build_spmv_plan(4, negative).uniform_positive);

  auto ragged = terms;
  ragged[2].pop_back();
  EXPECT_FALSE(build_spmv_plan(4, ragged).uniform_positive);
}

TEST(SpmvPlan, EmptyPlanIsHarmless) {
  const auto plan = build_spmv_plan(4, {});
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.num_blocks(), 0u);
  double y = 123.0;
  std::vector<double> x(4, 1.0);
  ops().spmv(plan, x.data(), &y);  // No outputs: must not touch y.
  EXPECT_EQ(y, 123.0);
}

}  // namespace
}  // namespace wbsn::kern
