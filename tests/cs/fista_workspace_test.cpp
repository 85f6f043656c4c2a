// FistaWorkspace arena semantics: grow-only buffers that are stable (no
// reallocation, no growth events) across same-shape solves, grow exactly
// when a larger shape arrives, and keep working — with bit-identical
// results — when shapes alternate.  Plus parity: the into-variant must
// produce the same bits as the allocating fista_reconstruct wrapper.
#include "cs/fista.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "cs/sensing_matrix.hpp"
#include "dsp/wavelet.hpp"
#include "sig/rng.hpp"

namespace wbsn::cs {
namespace {

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> sparse_window_measurements(const SensingMatrix& phi, int levels,
                                               int nonzeros, sig::Rng& rng) {
  std::vector<double> coeffs(phi.cols(), 0.0);
  for (int i = 0; i < nonzeros; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(phi.cols()) - 1));
    coeffs[idx] = rng.normal(0.0, 2.0);
  }
  return phi.apply(dsp::dwt_inverse(coeffs, levels));
}

struct Problem {
  SensingMatrix phi;
  std::vector<std::vector<double>> ys;
};

Problem make_problem(std::uint64_t seed, std::size_t m, std::size_t n,
                     std::size_t windows) {
  sig::Rng rng(seed);
  Problem problem{SensingMatrix::make_sparse_binary(m, n, 4, rng), {}};
  for (std::size_t b = 0; b < windows; ++b) {
    problem.ys.push_back(
        sparse_window_measurements(problem.phi, 3, 4 + static_cast<int>(3 * b), rng));
  }
  return problem;
}

/// Runs the into-variant on every window in turn against `ws`, returning
/// the signals (allocated here, outside the arena, so callers can compare
/// runs).
std::vector<std::vector<double>> solve_into(const Problem& problem,
                                            const FistaConfig& cfg,
                                            FistaWorkspace& ws) {
  std::vector<std::vector<double>> signals;
  for (const auto& y : problem.ys) {
    signals.emplace_back(problem.phi.cols());
    fista_solve_into(problem.phi, y, cfg, ws, signals.back());
  }
  return signals;
}

TEST(FistaWorkspace, SameShapeSolvesNeverGrowAndKeepPointerIdentity) {
  const auto problem = make_problem(11, 64, 128, 4);
  FistaConfig cfg;
  cfg.dwt_levels = 3;

  FistaWorkspace ws;
  const auto first = solve_into(problem, cfg, ws);
  const std::size_t grows_after_first = ws.grow_count();
  EXPECT_GE(grows_after_first, 1u);  // First contact sized the arena.

  const double* a_block = ws.a.data();
  const double* z_block = ws.z.data();
  const double* scratch_block = ws.dwt_scr.data();

  for (int run = 0; run < 3; ++run) {
    const auto again = solve_into(problem, cfg, ws);
    for (std::size_t b = 0; b < first.size(); ++b) {
      EXPECT_TRUE(bit_identical(first[b], again[b]));
    }
  }
  // No growth events and no reallocation across repeat solves: the whole
  // point of the arena.
  EXPECT_EQ(ws.grow_count(), grows_after_first);
  EXPECT_EQ(ws.a.data(), a_block);
  EXPECT_EQ(ws.z.data(), z_block);
  EXPECT_EQ(ws.dwt_scr.data(), scratch_block);
}

TEST(FistaWorkspace, LargerShapeGrowsOnceSmallerShapeReusesQuietly) {
  const auto small = make_problem(12, 32, 64, 2);
  const auto large = make_problem(13, 64, 128, 6);
  FistaConfig cfg;
  cfg.dwt_levels = 3;

  FistaWorkspace ws;
  (void)solve_into(small, cfg, ws);
  const std::size_t after_small = ws.grow_count();

  (void)solve_into(large, cfg, ws);
  const std::size_t after_large = ws.grow_count();
  EXPECT_GT(after_large, after_small);  // Bigger shape: exactly one growth event.

  // Back to the small shape: the high-water arena absorbs it, and the
  // result is bit-identical to a fresh-workspace solve (buffer slack must
  // not leak into the arithmetic).
  FistaWorkspace fresh;
  const auto from_fresh = solve_into(small, cfg, fresh);
  const auto from_reused = solve_into(small, cfg, ws);
  EXPECT_EQ(ws.grow_count(), after_large);
  for (std::size_t b = 0; b < from_fresh.size(); ++b) {
    EXPECT_TRUE(bit_identical(from_fresh[b], from_reused[b]));
  }
}

TEST(FistaWorkspace, IntoVariantMatchesAllocatingWrapperBitwise) {
  const auto problem = make_problem(14, 64, 128, 5);
  FistaConfig cfg;
  cfg.dwt_levels = 4;
  cfg.max_iterations = 60;

  FistaWorkspace ws;
  for (const auto& y : problem.ys) {
    const auto wrapped = fista_reconstruct(problem.phi, y, cfg);
    std::vector<double> direct(problem.phi.cols());
    EXPECT_EQ(fista_solve_into(problem.phi, y, cfg, ws, direct), wrapped.iterations_run);
    EXPECT_TRUE(bit_identical(wrapped.signal, direct));
    // The coefficients the wrapper returns are the arena's final `a`.
    EXPECT_TRUE(bit_identical(wrapped.coefficients,
                              std::span<const double>(ws.a.data(), problem.phi.cols())));
  }
}

TEST(FistaWorkspace, DebiasPathRunsOnTheArena) {
  const auto problem = make_problem(15, 64, 128, 3);
  FistaConfig cfg;
  cfg.dwt_levels = 3;
  cfg.debias = true;
  cfg.debias_iterations = 8;

  FistaWorkspace ws;
  const auto first = solve_into(problem, cfg, ws);
  const std::size_t grows = ws.grow_count();
  const auto second = solve_into(problem, cfg, ws);
  EXPECT_EQ(ws.grow_count(), grows);  // Debias scratch is part of the arena.
  for (std::size_t b = 0; b < problem.ys.size(); ++b) {
    EXPECT_TRUE(bit_identical(fista_reconstruct(problem.phi, problem.ys[b], cfg).signal,
                              first[b]));
    EXPECT_TRUE(bit_identical(first[b], second[b]));
  }
}

}  // namespace
}  // namespace wbsn::cs
