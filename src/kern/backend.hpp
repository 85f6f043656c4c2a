// Runtime-dispatched numeric kernels for the FISTA hot path.
//
// The reconstruction inner loop is dominated by four kernel families —
// sensing-matrix apply/adjoint (spmv over the packed ±1 plans), the Db4
// DWT lifting steps, the fused FISTA step (gradient step, soft threshold,
// momentum and the stopping-test sums in one pass over the coefficients),
// and the BLAS-1 reductions.  This layer owns them behind an Ops table
// with two backends:
//
//   * scalar — portable reference, runs anywhere;
//   * avx2   — x86 AVX2 intrinsics, selected at startup via CPUID.
//
// Determinism contract (inherited by host::ReconstructionEngine): both
// backends produce bit-identical doubles for every kernel.  The mechanism
// is a *canonical accumulation order* baked into the kernel definitions
// rather than left to the implementation:
//
//   * Reductions (dot, nrm2_sq, the momentum and FISTA-step delta/scale
//     sums) accumulate into kLanes = 4 partial sums, lane l taking
//     elements i ≡ l (mod 4), and reduce as (s0 + s2) + (s1 + s3) —
//     exactly the AVX2 register layout and its extract-fold, which the
//     scalar backend emulates.
//   * Spmv outputs sum their plan taps sequentially (see spmv_plan.hpp).
//   * DWT outputs use the fixed pairwise tree (c0·x0 + c1·x1) + (c2·x2 +
//     c3·x3).
//   * Elementwise kernels are single-rounded expressions (no FMA; the
//     kern TUs are compiled with -ffp-contract=off).
#pragma once

#include <cstddef>

#include "kern/spmv_plan.hpp"

namespace wbsn::kern {

/// Lane width of the canonical accumulation order (doubles per AVX2
/// register).  Independent of the backend actually running.
inline constexpr std::size_t kLanes = 4;

struct Ops {
  const char* name;

  // --- Reductions (canonical 4-lane strided order) -------------------------
  double (*dot)(const double* x, const double* y, std::size_t n);
  double (*nrm2_sq)(const double* x, std::size_t n);

  // --- Elementwise ---------------------------------------------------------
  /// y[i] += alpha * x[i].
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// y[i] = x[i] + beta * y[i].
  void (*xpby)(const double* x, double beta, double* y, std::size_t n);
  /// a[i] = z[i] - grad[i] / lip (the FISTA gradient step).
  void (*grad_step)(const double* z, const double* grad, double lip, double* a,
                    std::size_t n);

  // --- Fused FISTA updates -------------------------------------------------
  /// z[i] = a[i] + beta * (a[i] - a_prev[i]); *delta_sq = Σ (a - a_prev)²,
  /// *scale_sq = Σ a², both in canonical lane order (no epsilon added).
  void (*momentum)(const double* a, const double* a_prev, double* z, double beta,
                   std::size_t n, double* delta_sq, double* scale_sq);
  /// One whole FISTA step in a single pass over one window; `a` holds
  /// a_{k-1} on entry and a_k on exit.  Per element:
  ///   v = z - grad / lip,  a_k = copysign(max(|v| - tau, 0), v),
  ///   d = a_k - a_{k-1},   z = a_k + beta * d,
  /// with *delta_sq = Σ d² and *scale_sq = Σ a_k² in canonical lane
  /// order.  Bit-identical to grad_step, the soft threshold and momentum
  /// run one after another.
  void (*fista_step)(const double* grad, double lip, double tau, double beta, std::size_t n,
                     double* z, double* a, double* delta_sq, double* scale_sq);

  // --- Sparse sensing operator ---------------------------------------------
  /// y[o] = Σ_taps sgn · x[idx] over the plan (y fully overwritten).
  void (*spmv)(const SpmvPlan& plan, const double* x, double* y);

  // --- Daubechies-4 DWT steps (periodized) ---------------------------------
  /// approx[k] / detail[k] from x[2k..2k+3 mod n]; n even, half = n / 2.
  void (*dwt_step)(const double* x, std::size_t n, double* approx, double* detail);
  /// Inverse step: x (length 2 * half) from approx/detail (length half).
  void (*idwt_step)(const double* approx, const double* detail, std::size_t half,
                    double* x);
};

enum class Backend {
  kScalar,
  kAvx2,
};

/// The active backend's kernel table.  Selection happens once, at first
/// use: the WBSN_KERN_BACKEND environment variable ("scalar" / "avx2" /
/// "auto") when set, otherwise AVX2 iff the build and the CPU support it.
const Ops& ops();

Backend active_backend();
const char* backend_name();

/// True when the binary carries the AVX2 backend *and* CPUID reports AVX2.
bool avx2_supported();

/// Forces a backend (tests and benchmarks).  Returns false — and leaves
/// the selection unchanged — when the requested backend is unavailable.
/// Not meant to race in-flight solves: switch while quiesced.
bool set_backend(Backend backend);

/// Backend tables (for parity tests); avx2_ops() is null when the binary
/// was built without AVX2 support.
const Ops* scalar_ops();
const Ops* avx2_ops();

}  // namespace wbsn::kern
