#include "cs/fista.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/wavelet.hpp"
#include "kern/backend.hpp"

namespace wbsn::cs {
namespace {

/// The composed operator A = Φ Ψᵀ as the solver runs it.  Whenever the
/// DWT has a level to split, time-domain vectors are in split order (even
/// samples, then odd ones): the finest DWT level runs the shuffle-free
/// split steps and Φ reads, Φᵀ writes, the same positions.  levels == 0
/// keeps natural order.  Either way every value and bit is the same.
struct Synthesis {
  kern::SparseColumns phi;
  int levels = 0;
  void (*forward)(std::span<const double>, int, std::span<double>, std::span<double>);
  void (*inverse)(std::span<const double>, int, std::span<double>, std::span<double>);

  Synthesis(const SensingMatrix& m, int dwt_levels)
      : phi(dwt_levels > 0 ? m.split_columns() : m.columns()),
        levels(dwt_levels),
        forward(dwt_levels > 0 ? dsp::dwt_forward_split_into : dsp::dwt_forward_into),
        inverse(dwt_levels > 0 ? dsp::dwt_inverse_split_into : dsp::dwt_inverse_into) {}

  /// out_m = Φ Ψᵀ c (time_n: the time-domain intermediate).
  void apply(std::span<const double> c, std::span<double> time_n, std::span<double> scratch,
             std::span<double> out_m) const {
    inverse(c, levels, time_n, scratch);
    kern::sparse_apply(phi, time_n.data(), out_m.data());
  }
  /// out_n = Ψ Φᵀ r (time_n: the time-domain intermediate).
  void adjoint(std::span<const double> r, std::span<double> time_n, std::span<double> scratch,
               std::span<double> out_n) const {
    kern::sparse_apply_adjoint(phi, r.data(), time_n.data());
    forward(time_n, levels, out_n, scratch);
  }
};

/// Debias is skipped when |S| >= 0.95 m (kept in integers: 20 |S| >= 19 m):
/// there the normal equations are near-square and the refit lost 0.1 to
/// 0.6 dB per window.  0.85 would skip more, but costs the multi-lead
/// Figure-5 column up to 0.63 dB against the full solve.
constexpr std::size_t kDebiasSkipNum = 19;
constexpr std::size_t kDebiasSkipDen = 20;

/// CG stops once ||g||^2 <= kDebiasCgStop * ||g_0||^2; an absolute floor
/// such as 1e-18 never fires on real windows.  Calibrated with the skip
/// threshold against the Figure-5 table (docs/ARCHITECTURE.md).
constexpr double kDebiasCgStop = 1e-4;

/// debias_on_support on a prepared operator; all scratch comes from `ws`
/// (ensure_debias'd for this shape) — no allocation.
int debias_on_support_ws(const Synthesis& op, std::span<const double> y, std::span<double> a,
                         int iterations, FistaWorkspace& ws) {
  if (iterations <= 0) return 0;
  const auto& k = kern::ops();
  const std::size_t n = a.size();
  const std::size_t m = op.phi.rows;
  std::size_t support = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ws.db_mask[i] = a[i] != 0.0;
    support += ws.db_mask[i];
  }
  if (support == 0 || kDebiasSkipDen * support >= kDebiasSkipNum * m) return 0;

  const std::span<double> full(ws.db_full.data(), n);
  const std::span<double> time(ws.db_time.data(), n);
  const std::span<double> scratch(ws.db_scr.data(), n);
  const auto apply_masked = [&](std::span<const double> c, std::span<double> out_m) {
    for (std::size_t i = 0; i < n; ++i) full[i] = ws.db_mask[i] ? c[i] : 0.0;
    op.apply(full, time, scratch, out_m);
  };
  const auto adjoint_masked = [&](std::span<const double> r, std::span<double> out_n) {
    op.adjoint(r, full, scratch, out_n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!ws.db_mask[i]) out_n[i] = 0.0;
    }
  };

  // CG on A'A c = A'y, warm-started at the FISTA solution.
  const std::span<double> residual(ws.db_resid.data(), m);
  apply_masked(a, residual);
  for (std::size_t i = 0; i < m; ++i) residual[i] = y[i] - residual[i];
  const std::span<double> g(ws.db_g.data(), n);  // Gradient residual, coef space.
  adjoint_masked(residual, g);
  std::copy(g.begin(), g.end(), ws.db_dir.begin());
  double g_norm_sq = k.nrm2_sq(g.data(), n);
  const double g_stop = kDebiasCgStop * g_norm_sq;

  int it = 0;
  while (it < iterations && g_norm_sq > g_stop) {
    const std::span<double> ad(ws.db_ad.data(), m);
    apply_masked(std::span<const double>(ws.db_dir.data(), n), ad);
    ++it;  // A pass, even when the direction turns out null.
    const double ad_norm_sq = k.nrm2_sq(ad.data(), m);
    if (ad_norm_sq <= 1e-18) break;
    const double alpha = g_norm_sq / ad_norm_sq;
    k.axpy(alpha, ws.db_dir.data(), a.data(), n);
    k.axpy(-alpha, ad.data(), residual.data(), m);
    const std::span<double> g_next(ws.db_gnext.data(), n);
    adjoint_masked(residual, g_next);
    const double g_next_norm_sq = k.nrm2_sq(g_next.data(), n);
    const double beta = g_next_norm_sq / g_norm_sq;
    k.xpby(g_next.data(), beta, ws.db_dir.data(), n);
    g_norm_sq = g_next_norm_sq;
  }
  return kDebiasSetupPasses + it;
}

}  // namespace

void FistaWorkspace::ensure(std::size_t m, std::size_t n) {
  bool grew = false;
  grew |= grow(buf_m, m);
  grew |= grow(buf_n, n);
  grew |= grow(grad, n);
  grew |= grow(xz, n);
  grew |= grow(dwt_scr, n);
  grew |= grow(a, n);
  grew |= grow(z, n);
  grew |= grow(db_mask, n);
  grew |= grow(db_full, n);
  grew |= grow(db_time, n);
  grew |= grow(db_scr, n);
  grew |= grow(db_g, n);
  grew |= grow(db_dir, n);
  grew |= grow(db_gnext, n);
  grew |= grow(db_resid, m);
  grew |= grow(db_ad, m);
  if (grew) ++grow_count_;
}

void FistaWorkspace::ensure_debias(std::size_t m, std::size_t n) {
  bool grew = false;
  grew |= grow(db_mask, n);
  grew |= grow(db_full, n);
  grew |= grow(db_time, n);
  grew |= grow(db_scr, n);
  grew |= grow(db_g, n);
  grew |= grow(db_dir, n);
  grew |= grow(db_gnext, n);
  grew |= grow(db_resid, m);
  grew |= grow(db_ad, m);
  if (grew) ++grow_count_;
}

int debias_on_support(const SensingMatrix& phi, int dwt_levels, std::span<const double> y,
                      std::span<double> a, int iterations, FistaWorkspace& ws) {
  ws.ensure_debias(phi.rows(), phi.cols());
  return debias_on_support_ws(Synthesis(phi, dwt_levels), y, a, iterations, ws);
}

int fista_solve_into(const SensingMatrix& phi, std::span<const double> y,
                     const FistaConfig& cfg, FistaWorkspace& ws, std::span<double> signal,
                     int* operator_passes) {
  const auto& k = kern::ops();
  const std::size_t n = phi.cols();
  const std::size_t m = phi.rows();
  const int levels = std::min(cfg.dwt_levels, dsp::dwt_max_levels(n));
  const double lip = phi.lipschitz();
  const double inv_lip = 1.0 / lip;
  assert(y.size() == m && signal.size() == n);

  ws.ensure(m, n);
  const std::span<double> buf_m(ws.buf_m.data(), m);
  const std::span<double> buf_n(ws.buf_n.data(), n);
  const std::span<double> grad(ws.grad.data(), n);
  const std::span<double> xz(ws.xz.data(), n);
  const std::span<double> scratch(ws.dwt_scr.data(), n);
  const std::span<double> a(ws.a.data(), n);
  const std::span<double> z(ws.z.data(), n);

  const Synthesis op(phi, levels);

  // lambda from the worst-case correlation |A' y|.
  op.adjoint(y, buf_n, scratch, grad);
  double max_abs = 0.0;
  for (const double v : grad) max_abs = std::max(max_abs, std::abs(v));
  const double tau = cfg.lambda_rel * max_abs / lip;

  std::fill(a.begin(), a.end(), 0.0);
  std::fill(z.begin(), z.end(), 0.0);
  double t = 1.0;
  int iterations = 0;
  for (int it = 0; it < cfg.max_iterations; ++it) {
    // Gradient at z: grad = A'(A z - y).
    op.apply(z, xz, scratch, buf_m);
    k.axpy(-1.0, y.data(), buf_m.data(), m);
    op.adjoint(buf_m, buf_n, scratch, grad);
    // One fused pass: a = soft(z - grad * (1/L)), z = a + beta (a - a_prev)
    // and the stopping sums; `a` carries a_prev in.
    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_next;
    double delta_sq = 0.0;
    double scale_sq = 0.0;
    k.fista_step(grad.data(), inv_lip, tau, beta, n, z.data(), a.data(), &delta_sq,
                 &scale_sq);
    t = t_next;
    iterations = it + 1;
    if (std::sqrt(delta_sq / (1e-12 + scale_sq)) < cfg.tolerance) break;
  }

  int passes = kLambdaPasses + iterations;
  passes += debias_on_support_ws(op, y, a, cfg.debias_iterations, ws);
  // The result leaves in natural order.
  dsp::dwt_inverse_into(a, levels, signal, scratch);
  if (operator_passes != nullptr) *operator_passes = passes;
  return iterations;
}

FistaResult fista_reconstruct(const SensingMatrix& phi, std::span<const double> y,
                              const FistaConfig& cfg) {
  const std::size_t n = phi.cols();
  FistaWorkspace ws;
  FistaResult result;
  result.signal.resize(n);
  result.iterations_run = fista_solve_into(phi, y, cfg, ws, result.signal);
  result.coefficients.assign(ws.a.begin(), ws.a.begin() + static_cast<long>(n));
  return result;
}

GroupFistaResult group_fista_reconstruct_multi(std::span<const SensingMatrix> phis,
                                               std::span<const std::vector<double>> ys,
                                               const FistaConfig& cfg) {
  assert(phis.size() == ys.size());
  const auto& kn = kern::ops();
  const std::size_t n = phis[0].cols();
  const std::size_t num_leads = ys.size();
  const int levels = std::min(cfg.dwt_levels, dsp::dwt_max_levels(n));
  GroupFistaResult result;
  assert(num_leads > 0);

  double lip = 1.0;
  for (const auto& phi : phis) lip = std::max(lip, phi.lipschitz());

  // lambda from the worst lead's correlation (keeps all leads active).
  double max_abs = 0.0;
  for (std::size_t l = 0; l < num_leads; ++l) {
    const auto aty = dsp::dwt_forward(phis[l].apply_adjoint(ys[l]), levels);
    for (double v : aty) max_abs = std::max(max_abs, std::abs(v));
  }
  const double lambda = cfg.lambda_rel * max_abs;

  std::vector<std::vector<double>> a(num_leads, std::vector<double>(n, 0.0));
  auto z = a;
  auto a_prev = a;
  double t = 1.0;

  for (int it = 0; it < cfg.max_iterations; ++it) {
    a_prev = a;
    for (std::size_t l = 0; l < num_leads; ++l) {
      auto az = phis[l].apply(dsp::dwt_inverse(z[l], levels));
      kn.axpy(-1.0, ys[l].data(), az.data(), az.size());
      const auto grad = dsp::dwt_forward(phis[l].apply_adjoint(az), levels);
      for (std::size_t i = 0; i < n; ++i) a[l][i] = z[l][i] - grad[i] / lip;
    }
    // Group (row-wise) soft threshold: shrink the cross-lead coefficient
    // vector at each index jointly — coefficients survive only where the
    // *ensemble* of leads has energy, which is the joint-sparsity prior.
    const double tau = lambda / lip;
    for (std::size_t i = 0; i < n; ++i) {
      double row_norm_sq = 0.0;
      for (std::size_t l = 0; l < num_leads; ++l) row_norm_sq += a[l][i] * a[l][i];
      const double row_norm = std::sqrt(row_norm_sq);
      const double scale = row_norm > tau ? (row_norm - tau) / row_norm : 0.0;
      for (std::size_t l = 0; l < num_leads; ++l) a[l][i] *= scale;
    }

    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_next;
    double delta = 0.0;
    double scale_acc = 1e-12;
    for (std::size_t l = 0; l < num_leads; ++l) {
      double lead_delta = 0.0;
      double lead_scale = 0.0;
      kn.momentum(a[l].data(), a_prev[l].data(), z[l].data(), beta, n, &lead_delta,
                  &lead_scale);
      delta += lead_delta;
      scale_acc += lead_scale;
    }
    t = t_next;
    result.iterations_run = it + 1;
    if (std::sqrt(delta / scale_acc) < cfg.tolerance) break;
  }

  result.signals.reserve(num_leads);
  FistaWorkspace ws;
  for (std::size_t l = 0; l < num_leads; ++l) {
    debias_on_support(phis[l], levels, ys[l], a[l], cfg.debias_iterations, ws);
    result.signals.push_back(dsp::dwt_inverse(a[l], levels));
  }
  return result;
}

double reconstruction_snr_db(std::span<const double> reference,
                             std::span<const double> reconstructed) {
  assert(reference.size() == reconstructed.size());
  double signal = 0.0;
  double error = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    signal += reference[i] * reference[i];
    const double e = reference[i] - reconstructed[i];
    error += e * e;
  }
  if (error <= 1e-30) return 150.0;  // Effectively exact.
  return 10.0 * std::log10(signal / error);
}

double prd_percent(std::span<const double> reference,
                   std::span<const double> reconstructed) {
  return 100.0 * std::pow(10.0, -reconstruction_snr_db(reference, reconstructed) / 20.0);
}

}  // namespace wbsn::cs
