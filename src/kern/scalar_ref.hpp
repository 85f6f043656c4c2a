// Canonical scalar reference implementations, shared by the scalar
// backend (wholesale) and the AVX2 backend (loop tails and small-n
// fallbacks).  Every function here *defines* the kernel's bit-exact
// semantics — see backend.hpp for the accumulation-order contract.
//
// Internal to src/kern; compiled only in TUs built with -ffp-contract=off
// so no platform fuses the mul/add pairs into FMAs.
#pragma once

#include <cmath>
#include <cstddef>

#include "kern/spmv_plan.hpp"

namespace wbsn::kern::ref {

/// Canonical fold of the 4 lane accumulators: matches the AVX2
/// extract-low/high + fold sequence.
inline double reduce_lanes(const double acc[4]) {
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

inline double dot(const double* x, const double* y, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 3] += x[i] * y[i];
  return reduce_lanes(acc);
}

inline double nrm2_sq(const double* x, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 3] += x[i] * x[i];
  return reduce_lanes(acc);
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + alpha * x[i];
}

inline void xpby(const double* x, double beta, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + beta * y[i];
}

inline void grad_step(const double* z, const double* grad, double lip, double* a,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] = z[i] - grad[i] / lip;
}

/// copysign(max(|v| - tau, 0), v): the branchless form both backends use;
/// |v| <= tau yields ±0.0 carrying v's sign bit.
inline double soft_threshold_one(double v, double tau) {
  const double mag = std::fabs(v) - tau;
  return std::copysign(mag > 0.0 ? mag : 0.0, v);
}

inline void momentum(const double* a, const double* a_prev, double* z, double beta,
                     std::size_t n, double* delta_sq, double* scale_sq) {
  double acc_d[4] = {0.0, 0.0, 0.0, 0.0};
  double acc_s[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - a_prev[i];
    acc_d[i & 3] += d * d;
    acc_s[i & 3] += a[i] * a[i];
    z[i] = a[i] + beta * d;
  }
  *delta_sq = reduce_lanes(acc_d);
  *scale_sq = reduce_lanes(acc_s);
}

/// One element of the fused FISTA step; a holds a_{k-1} on entry and
/// a_k on exit.  Returns d = a_k - a_{k-1}.
inline double fista_step_one(double& z, double grad, double& a, double lip, double tau,
                             double beta) {
  const double a_new = soft_threshold_one(z - grad / lip, tau);
  const double d = a_new - a;
  a = a_new;
  z = a_new + beta * d;
  return d;
}

inline void fista_step(const double* grad, double lip, double tau, double beta,
                       std::size_t n, double* z, double* a, double* delta_sq,
                       double* scale_sq) {
  double acc_d[4] = {0.0, 0.0, 0.0, 0.0};
  double acc_s[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double d = fista_step_one(z[i], grad[i], a[i], lip, tau, beta);
    acc_d[i & 3] += d * d;
    acc_s[i & 3] += a[i] * a[i];
  }
  *delta_sq = reduce_lanes(acc_d);
  *scale_sq = reduce_lanes(acc_s);
}

/// One plan output, summed sequentially over its taps (including pads).
inline double spmv_output(const SpmvPlan& plan, const double* x, std::size_t block,
                          std::size_t lane) {
  double acc = 0.0;
  for (std::uint32_t g = plan.block_tap_start[block]; g < plan.block_tap_start[block + 1];
       ++g) {
    const std::size_t t = static_cast<std::size_t>(g) * SpmvPlan::kLanes + lane;
    acc += plan.sgn[t] * x[plan.idx[t]];
  }
  return acc;
}

inline void spmv(const SpmvPlan& plan, const double* x, double* y) {
  for (std::size_t o = 0; o < plan.num_outputs; ++o) {
    y[o] = spmv_output(plan, x, o / SpmvPlan::kLanes, o % SpmvPlan::kLanes);
  }
}

// Daubechies-4 orthonormal filter pair (two vanishing moments).
inline constexpr double kDb4Lo[4] = {0.48296291314453416, 0.83651630373780794,
                                     0.22414386804201339, -0.12940952255126037};
inline constexpr double kDb4Hi[4] = {-0.12940952255126037, -0.22414386804201339,
                                     0.83651630373780794, -0.48296291314453416};

/// Canonical pairwise tree for one forward output pair.
inline void dwt_output(double x0, double x1, double x2, double x3, double* a, double* d) {
  *a = (kDb4Lo[0] * x0 + kDb4Lo[1] * x1) + (kDb4Lo[2] * x2 + kDb4Lo[3] * x3);
  *d = (kDb4Hi[0] * x0 + kDb4Hi[1] * x1) + (kDb4Hi[2] * x2 + kDb4Hi[3] * x3);
}

inline void dwt_step(const double* x, std::size_t n, double* approx, double* detail) {
  const std::size_t half = n / 2;
  if (half == 0) return;
  // Only the last output wraps (taps 2k..2k+3 with k = half-1 reach n+1):
  // the main loop runs modulo-free.
  for (std::size_t k = 0; k + 1 < half; ++k) {
    dwt_output(x[2 * k], x[2 * k + 1], x[2 * k + 2], x[2 * k + 3], &approx[k], &detail[k]);
  }
  const std::size_t k = half - 1;
  dwt_output(x[(2 * k) % n], x[(2 * k + 1) % n], x[(2 * k + 2) % n], x[(2 * k + 3) % n],
             &approx[k], &detail[k]);
}

/// Canonical pairwise tree for one inverse output pair: output 2k uses
/// filter taps (0, 2), output 2k+1 taps (1, 3), both drawing on
/// coefficients k and k⁻ = (k - 1) mod half.
inline void idwt_outputs(double ak, double dk, double akm, double dkm, double* even,
                         double* odd) {
  *even = (kDb4Lo[0] * ak + kDb4Hi[0] * dk) + (kDb4Lo[2] * akm + kDb4Hi[2] * dkm);
  *odd = (kDb4Lo[1] * ak + kDb4Hi[1] * dk) + (kDb4Lo[3] * akm + kDb4Hi[3] * dkm);
}

inline void idwt_step(const double* approx, const double* detail, std::size_t half,
                      double* x) {
  if (half == 0) return;
  // Only k = 0 wraps (k⁻ = half-1); the main loop uses k⁻ = k - 1 directly.
  idwt_outputs(approx[0], detail[0], approx[half - 1], detail[half - 1], &x[0], &x[1]);
  for (std::size_t k = 1; k < half; ++k) {
    idwt_outputs(approx[k], detail[k], approx[k - 1], detail[k - 1], &x[2 * k],
                 &x[2 * k + 1]);
  }
}

}  // namespace wbsn::kern::ref
