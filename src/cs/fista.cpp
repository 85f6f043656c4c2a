#include "cs/fista.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/wavelet.hpp"
#include "kern/backend.hpp"

namespace wbsn::cs {
namespace {

double norm2(std::span<const double> v) {
  return std::sqrt(kern::ops().nrm2_sq(v.data(), v.size()));
}

/// Least-squares refit of `a` restricted to its non-zero support:
/// conjugate gradient on the normal equations of the composed operator
/// A = Phi Psi' (masked to the support).  All scratch comes from `ws`
/// (ensure_debias'd for this shape) — no allocation.
void debias_on_support_ws(const SensingMatrix& phi, int levels, std::span<const double> y,
                          std::span<double> a, int iterations, FistaWorkspace& ws) {
  const auto& k = kern::ops();
  const std::size_t n = a.size();
  const std::size_t m = phi.rows();
  std::size_t support = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ws.db_mask[i] = a[i] != 0.0;
    support += ws.db_mask[i];
  }
  if (support == 0 || support > m) return;  // Under-determined: skip.

  const auto apply_masked = [&](std::span<const double> c, std::span<double> out_m) {
    for (std::size_t i = 0; i < n; ++i) ws.db_full[i] = ws.db_mask[i] ? c[i] : 0.0;
    dsp::dwt_inverse_into(std::span<const double>(ws.db_full.data(), n), levels,
                          std::span<double>(ws.db_time.data(), n),
                          std::span<double>(ws.db_scr.data(), n));
    phi.apply_into(std::span<const double>(ws.db_time.data(), n), out_m);
  };
  const auto adjoint_masked = [&](std::span<const double> r, std::span<double> out_n) {
    phi.apply_adjoint_into(r, std::span<double>(ws.db_full.data(), n));
    dsp::dwt_forward_into(std::span<const double>(ws.db_full.data(), n), levels, out_n,
                          std::span<double>(ws.db_scr.data(), n));
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

  for (int it = 0; it < iterations && g_norm_sq > 1e-18; ++it) {
    const std::span<double> ad(ws.db_ad.data(), m);
    apply_masked(std::span<const double>(ws.db_dir.data(), n), ad);
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
}

/// Allocating wrapper for the non-hot paths (group solver, ablations).
void debias_on_support(const SensingMatrix& phi, int levels, std::span<const double> y,
                       std::vector<double>& a, int iterations) {
  FistaWorkspace ws;
  ws.ensure_debias(phi.rows(), phi.cols());
  debias_on_support_ws(phi, levels, y, std::span<double>(a.data(), a.size()), iterations,
                       ws);
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

int fista_solve_into(const SensingMatrix& phi, std::span<const double> y,
                     const FistaConfig& cfg, FistaWorkspace& ws, std::span<double> signal) {
  const auto& k = kern::ops();
  const std::size_t n = phi.cols();
  const std::size_t m = phi.rows();
  const int levels = std::min(cfg.dwt_levels, dsp::dwt_max_levels(n));
  const double lip = phi.lipschitz();
  assert(y.size() == m && signal.size() == n);

  ws.ensure(m, n);
  const std::span<double> buf_m(ws.buf_m.data(), m);
  const std::span<double> buf_n(ws.buf_n.data(), n);
  const std::span<double> grad(ws.grad.data(), n);
  const std::span<double> xz(ws.xz.data(), n);
  const std::span<double> scratch(ws.dwt_scr.data(), n);
  const std::span<double> a(ws.a.data(), n);
  const std::span<double> z(ws.z.data(), n);

  // lambda from the worst-case correlation |A' y|.
  phi.apply_adjoint_into(y, buf_n);
  dsp::dwt_forward_into(buf_n, levels, grad, scratch);
  double max_abs = 0.0;
  for (const double v : grad) max_abs = std::max(max_abs, std::abs(v));
  const double tau = cfg.lambda_rel * max_abs / lip;

  std::fill(a.begin(), a.end(), 0.0);
  std::fill(z.begin(), z.end(), 0.0);
  double t = 1.0;
  int iterations = 0;
  for (int it = 0; it < cfg.max_iterations; ++it) {
    // Gradient at z: grad = A'(A z - y).
    dsp::dwt_inverse_into(z, levels, xz, scratch);
    phi.apply_into(xz, buf_m);
    k.axpy(-1.0, y.data(), buf_m.data(), m);
    phi.apply_adjoint_into(buf_m, buf_n);
    dsp::dwt_forward_into(buf_n, levels, grad, scratch);
    // One fused pass: a = soft(z - grad / L), z = a + beta (a - a_prev) and
    // the stopping sums; `a` carries a_prev in.
    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_next;
    double delta_sq = 0.0;
    double scale_sq = 0.0;
    k.fista_step(grad.data(), lip, tau, beta, n, z.data(), a.data(), &delta_sq, &scale_sq);
    t = t_next;
    iterations = it + 1;
    if (std::sqrt(delta_sq / (1e-12 + scale_sq)) < cfg.tolerance) break;
  }

  if (cfg.debias) debias_on_support_ws(phi, levels, y, a, cfg.debias_iterations, ws);
  dsp::dwt_inverse_into(a, levels, signal, scratch);
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

GroupFistaResult group_fista_reconstruct(const SensingMatrix& phi,
                                         std::span<const std::vector<double>> ys,
                                         const FistaConfig& cfg) {
  std::vector<SensingMatrix> phis(ys.size(), phi);
  return group_fista_reconstruct_multi(phis, ys, cfg);
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
      kn.grad_step(z[l].data(), grad.data(), lip, a[l].data(), n);
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
  for (std::size_t l = 0; l < num_leads; ++l) {
    if (cfg.debias) debias_on_support(phis[l], levels, ys[l], a[l], cfg.debias_iterations);
    result.signals.push_back(dsp::dwt_inverse(a[l], levels));
  }
  return result;
}

std::vector<double> omp_reconstruct(const SensingMatrix& phi, std::span<const double> y,
                                    const OmpConfig& cfg) {
  const std::size_t n = phi.cols();
  const std::size_t m = phi.rows();
  const int levels = std::min(cfg.dwt_levels, dsp::dwt_max_levels(n));
  const auto& kn = kern::ops();

  // Column of A = Phi * (inverse DWT of the i-th unit coefficient).
  const auto column_of = [&](std::size_t i) {
    std::vector<double> e(n, 0.0);
    e[i] = 1.0;
    return phi.apply(dsp::dwt_inverse(e, levels));
  };

  std::vector<double> residual(y.begin(), y.end());
  const double y_norm = std::max(norm2(y), 1e-12);
  std::vector<std::size_t> support;
  std::vector<std::vector<double>> atoms;  // Selected columns.
  std::vector<double> coef;

  while (support.size() < cfg.max_atoms && norm2(residual) / y_norm > cfg.residual_tolerance) {
    // Correlation of the residual with every atom: A' r via the adjoint.
    const auto corr = dsp::dwt_forward(phi.apply_adjoint(residual), levels);
    std::size_t best = 0;
    double best_mag = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double mag = std::abs(corr[i]);
      if (mag > best_mag &&
          std::find(support.begin(), support.end(), i) == support.end()) {
        best_mag = mag;
        best = i;
      }
    }
    support.push_back(best);
    atoms.push_back(column_of(best));

    // Least squares on the support: solve (G) c = b with G the Gram
    // matrix of the selected atoms (small and SPD -> plain Cholesky).
    const std::size_t k = atoms.size();
    std::vector<double> gram(k * k, 0.0);
    std::vector<double> b(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double acc = kn.dot(atoms[i].data(), atoms[j].data(), m);
        gram[i * k + j] = acc;
        gram[j * k + i] = acc;
      }
      b[i] = kn.dot(atoms[i].data(), y.data(), m);
    }
    // Cholesky G = L L'.
    std::vector<double> chol(k * k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double acc = gram[i * k + j];
        for (std::size_t p = 0; p < j; ++p) acc -= chol[i * k + p] * chol[j * k + p];
        if (i == j) {
          chol[i * k + i] = std::sqrt(std::max(acc, 1e-12));
        } else {
          chol[i * k + j] = acc / chol[j * k + j];
        }
      }
    }
    coef.assign(k, 0.0);
    // Forward substitution L w = b, then backward L' c = w.
    std::vector<double> w(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      double acc = b[i];
      for (std::size_t p = 0; p < i; ++p) acc -= chol[i * k + p] * w[p];
      w[i] = acc / chol[i * k + i];
    }
    for (std::size_t i = k; i-- > 0;) {
      double acc = w[i];
      for (std::size_t p = i + 1; p < k; ++p) acc -= chol[p * k + i] * coef[p];
      coef[i] = acc / chol[i * k + i];
    }

    // Residual update.
    residual.assign(y.begin(), y.end());
    for (std::size_t i = 0; i < k; ++i) {
      kn.axpy(-coef[i], atoms[i].data(), residual.data(), m);
    }
  }

  std::vector<double> a(n, 0.0);
  for (std::size_t i = 0; i < support.size(); ++i) a[support[i]] = coef[i];
  return dsp::dwt_inverse(a, levels);
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
