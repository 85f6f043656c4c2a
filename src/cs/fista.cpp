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

void FistaWorkspace::ensure(std::size_t m, std::size_t n, std::size_t batch) {
  bool grew = false;
  const std::size_t mb = m * batch;
  const std::size_t nb = n * batch;
  grew |= grow(y, mb);
  grew |= grow(y2, mb);
  grew |= grow(buf_m, mb);
  grew |= grow(buf_n, nb);
  grew |= grow(aty, nb);
  grew |= grow(grad, nb);
  grew |= grow(xz, nb);
  grew |= grow(dwt_scr, nb);
  grew |= grow(a, nb);
  grew |= grow(z, nb);
  grew |= grow(a2, nb);
  grew |= grow(z2, nb);
  grew |= grow(final_a, nb);
  grew |= grow(tau, batch);
  grew |= grow(tau2, batch);
  grew |= grow(delta, batch);
  grew |= grow(scale, batch);
  grew |= grow(owner, batch);
  grew |= grow(owner2, batch);
  grew |= grow(kept, batch);
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

void fista_solve_batch_into(const SensingMatrix& phi,
                            std::span<const std::span<const double>> ys,
                            const FistaConfig& cfg, FistaWorkspace& ws,
                            std::span<FistaWindowOut> outs) {
  const std::size_t batch = ys.size();
  assert(outs.size() == batch);
  if (batch == 0) return;

  const auto& k = kern::ops();
  const std::size_t n = phi.cols();
  const std::size_t m = phi.rows();
  const int levels = std::min(cfg.dwt_levels, dsp::dwt_max_levels(n));
  const double lip = phi.lipschitz();

  ws.ensure(m, n, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    assert(ys[b].size() == m);
    assert(outs[b].signal.size() == n);
    outs[b].iterations_run = 0;
  }

  // Windows interleave element-major: Y[r * batch + b] is measurement r of
  // window b.  Every kernel's per-window math is bit-identical across
  // batch widths (kern contract), so packing windows is purely an
  // execution-layout optimization — the matrix plan and the DWT filters
  // stream once per iteration for the whole batch.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < m; ++r) ws.y[r * batch + b] = ys[b][r];
  }

  // Per-window lambda from the worst-case correlation |A' y| (max is
  // order-free, so a plain strided scan matches the single-window path).
  phi.apply_adjoint_batch(std::span<const double>(ws.y.data(), m * batch), batch,
                          std::span<double>(ws.buf_n.data(), n * batch));
  dsp::dwt_forward_batch_into(std::span<const double>(ws.buf_n.data(), n * batch), batch,
                              levels, std::span<double>(ws.aty.data(), n * batch),
                              std::span<double>(ws.dwt_scr.data(), n * batch));
  std::fill(ws.tau.begin(), ws.tau.begin() + static_cast<long>(batch), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < batch; ++b) {
      ws.tau[b] = std::max(ws.tau[b], std::abs(ws.aty[i * batch + b]));
    }
  }
  for (std::size_t b = 0; b < batch; ++b) ws.tau[b] = cfg.lambda_rel * ws.tau[b] / lip;

  // Active-lane state.  When a window converges, its iterate is extracted
  // and the lane is compacted away, so later iterations only pay for the
  // windows still running.  Every kernel's per-window math is independent
  // of the batch composition (the kern batch-width contract), so shrinking
  // the batch mid-solve cannot change any surviving window's bits.
  for (std::size_t b = 0; b < batch; ++b) ws.owner[b] = b;  // Lane -> window.
  std::fill(ws.a.begin(), ws.a.begin() + static_cast<long>(n * batch), 0.0);
  std::fill(ws.z.begin(), ws.z.begin() + static_cast<long>(n * batch), 0.0);
  std::size_t cur = batch;
  double t = 1.0;

  const auto extract_lane = [&](std::size_t lane) {
    double* ab = ws.final_a.data() + ws.owner[lane] * n;
    for (std::size_t i = 0; i < n; ++i) ab[i] = ws.a[i * cur + lane];
  };

  for (int it = 0; it < cfg.max_iterations && cur > 0; ++it) {
    // Gradient at z: grad = A'(A z - y).
    dsp::dwt_inverse_batch_into(std::span<const double>(ws.z.data(), n * cur), cur, levels,
                                std::span<double>(ws.xz.data(), n * cur),
                                std::span<double>(ws.dwt_scr.data(), n * cur));
    phi.apply_batch(std::span<const double>(ws.xz.data(), n * cur), cur,
                    std::span<double>(ws.buf_m.data(), m * cur));
    k.axpy(-1.0, ws.y.data(), ws.buf_m.data(), m * cur);
    phi.apply_adjoint_batch(std::span<const double>(ws.buf_m.data(), m * cur), cur,
                            std::span<double>(ws.buf_n.data(), n * cur));
    dsp::dwt_forward_batch_into(std::span<const double>(ws.buf_n.data(), n * cur), cur,
                                levels, std::span<double>(ws.grad.data(), n * cur),
                                std::span<double>(ws.dwt_scr.data(), n * cur));
    // One fused pass: a = soft(z - grad / L), z = a + beta (a - a_prev) and
    // the per-window stopping sums; `a` carries a_prev in.
    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
    const double beta = (t - 1.0) / t_next;
    k.fista_step_batch(ws.grad.data(), lip, ws.tau.data(), beta, n, cur, ws.z.data(),
                       ws.a.data(), ws.delta.data(), ws.scale.data());
    t = t_next;

    // Surviving lanes are written into kept[0, next) by index: the buffer
    // keeps its ensure()d size, so the arena never sees it shrink.
    std::size_t next = 0;
    for (std::size_t lane = 0; lane < cur; ++lane) {
      outs[ws.owner[lane]].iterations_run = it + 1;
      if (std::sqrt(ws.delta[lane] / (1e-12 + ws.scale[lane])) < cfg.tolerance) {
        extract_lane(lane);  // Converged: this window's solve ends here.
      } else {
        ws.kept[next++] = lane;
      }
    }
    if (next < cur) {
      // Compact the surviving lanes (exact copies, no arithmetic); the
      // shadow buffers swap in, so no allocation either.
      for (std::size_t j = 0; j < next; ++j) {
        const std::size_t lane = ws.kept[j];
        for (std::size_t i = 0; i < n; ++i) {
          ws.a2[i * next + j] = ws.a[i * cur + lane];
          ws.z2[i * next + j] = ws.z[i * cur + lane];
        }
        for (std::size_t r = 0; r < m; ++r) ws.y2[r * next + j] = ws.y[r * cur + lane];
        ws.tau2[j] = ws.tau[lane];
        ws.owner2[j] = ws.owner[lane];
      }
      std::swap(ws.a, ws.a2);
      std::swap(ws.z, ws.z2);
      std::swap(ws.y, ws.y2);
      std::swap(ws.tau, ws.tau2);
      std::swap(ws.owner, ws.owner2);
      cur = next;
    }
  }
  // Windows that hit max_iterations without converging.
  for (std::size_t lane = 0; lane < cur; ++lane) extract_lane(lane);

  for (std::size_t b = 0; b < batch; ++b) {
    // Every lane was extracted above — at convergence, or by the post-loop
    // sweep (which covers max_iterations == 0 with the zero iterate too).
    const std::span<double> ab(ws.final_a.data() + b * n, n);
    if (cfg.debias) debias_on_support_ws(phi, levels, ys[b], ab, cfg.debias_iterations, ws);
    dsp::dwt_inverse_into(ab, levels, outs[b].signal,
                          std::span<double>(ws.dwt_scr.data(), n));
  }
}

std::vector<FistaResult> fista_solve_batch(const SensingMatrix& phi,
                                           std::span<const std::vector<double>> ys,
                                           const FistaConfig& cfg) {
  const std::size_t batch = ys.size();
  std::vector<FistaResult> results(batch);
  if (batch == 0) return results;
  const std::size_t n = phi.cols();

  FistaWorkspace ws;
  std::vector<std::span<const double>> views(batch);
  std::vector<FistaWindowOut> outs(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    views[b] = std::span<const double>(ys[b].data(), ys[b].size());
    results[b].signal.resize(n);
    outs[b].signal = std::span<double>(results[b].signal.data(), n);
  }
  fista_solve_batch_into(phi, views, cfg, ws, outs);
  for (std::size_t b = 0; b < batch; ++b) {
    results[b].iterations_run = outs[b].iterations_run;
    results[b].coefficients.assign(ws.final_a.begin() + static_cast<long>(b * n),
                                   ws.final_a.begin() + static_cast<long>((b + 1) * n));
  }
  return results;
}

FistaResult fista_reconstruct(const SensingMatrix& phi, std::span<const double> y,
                              const FistaConfig& cfg) {
  const std::vector<std::vector<double>> ys(1, std::vector<double>(y.begin(), y.end()));
  auto results = fista_solve_batch(phi, ys, cfg);
  return std::move(results[0]);
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
