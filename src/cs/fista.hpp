// Host-side CS reconstruction: FISTA with wavelet-domain sparsity, plus
// the jointly-sparse multi-lead variant (group LASSO across leads).
//
// The node only encodes (sensing_matrix.hpp); reconstruction runs on the
// receiver (smartphone / server — reference [5] demonstrated a real-time
// phone decoder).  The single-lead solver minimizes
//     0.5 || y - Phi Psi' a ||^2 + lambda ||a||_1
// over wavelet coefficients a (Psi = orthonormal Daubechies-4), via FISTA
// (Beck & Teboulle, 2009).  The multi-lead solver replaces the l1 penalty
// by the l2,1 mixed norm over coefficient *rows* (one row = the same
// coefficient index across all leads), exploiting the inter-lead common
// support the paper's reference [6] identifies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cs/sensing_matrix.hpp"

namespace wbsn::cs {

struct FistaConfig {
  int max_iterations = 200;
  double lambda_rel = 0.001;   ///< lambda = lambda_rel * max|A' y|.
  /// Per-window stop: ||a_k - a_{k-1}|| / ||a_k|| < tolerance, the
  /// relative change of the wavelet-coefficient iterate in one iteration.
  /// Calibrated against Figure 5 (bench/fig5_snr_vs_cr; table in
  /// docs/ARCHITECTURE.md): at 3e-3, single- and multi-lead SNR stays
  /// within 0.18 dB of the full 250-iteration solve at every CR from 30 to
  /// 90 % and gains at most CRs, while a CR-50 512-sample window stops
  /// after about 111-118 of its 200 iterations.  The test cannot fire at
  /// iteration 1 (so 1-iteration solves never stop early): the first
  /// iterate moves from zero, so its relative change is 1 unless it is
  /// still all zero.  0 disables the stop (always run max_iterations).
  double tolerance = 3e-3;
  int dwt_levels = 5;
  /// Re-fit the non-zero coefficients by least squares after FISTA
  /// (conjugate gradient on the support).  Removes the soft-threshold
  /// shrinkage bias; typically worth several dB.
  bool debias = true;
  int debias_iterations = 30;
};

struct FistaResult {
  std::vector<double> signal;        ///< Reconstructed time-domain window.
  std::vector<double> coefficients;  ///< Final wavelet coefficients.
  int iterations_run = 0;
};

/// Grow-only solve arena for fista_solve_into: owns every iterate,
/// momentum point, gradient, DWT scratch and debias buffer a solve needs,
/// keyed by (m, n).  ensure() reallocates a buffer only when a required
/// size first exceeds its high-water capacity, so steady-state solves of a
/// stable shape — or any smaller one — perform zero heap allocations.
/// Not thread-safe: one workspace per worker thread.
class FistaWorkspace {
 public:
  /// Sizes every buffer for an m x n problem.  Grow-only: shrinking
  /// shapes reuse the existing storage.
  void ensure(std::size_t m, std::size_t n);

  /// Sizes only the debias buffers (the standalone debias path).
  void ensure_debias(std::size_t m, std::size_t n);

  /// Number of ensure() calls that had to grow at least one buffer (test
  /// hook: goes flat once the shape high-water mark is reached).
  std::size_t grow_count() const { return grow_count_; }

  // Buffers, public for the solver core and the pointer-stability tests.
  std::vector<double> buf_m;  // m
  /// `a` holds the final (post-debias) wavelet coefficients after a
  /// fista_solve_into call.
  std::vector<double> buf_n, grad, xz, dwt_scr, a, z;  // n
  // Debias scratch:
  std::vector<std::uint8_t> db_mask;
  std::vector<double> db_full, db_time, db_scr, db_g, db_dir, db_gnext;  // n
  std::vector<double> db_resid, db_ad;                                   // m

 private:
  template <class Vec>
  static bool grow(Vec& v, std::size_t need) {
    if (v.size() >= need) return false;
    v.resize(need);
    return true;
  }
  std::size_t grow_count_ = 0;
};

/// Single-lead reconstruction of a window of `n` samples from `y`.  A
/// thin wrapper over fista_solve_into with a fresh workspace.
FistaResult fista_reconstruct(const SensingMatrix& phi, std::span<const double> y,
                              const FistaConfig& cfg = {});

/// Allocation-free core of fista_reconstruct: `y` is borrowed, the
/// reconstruction lands in the caller's `signal` buffer (n samples, e.g. a
/// pooled WindowResult buffer), and every intermediate lives in `ws` —
/// after the first solve of a given shape the steady state performs zero
/// heap allocations.  Returns the number of FISTA iterations run.
int fista_solve_into(const SensingMatrix& phi, std::span<const double> y,
                     const FistaConfig& cfg, FistaWorkspace& ws, std::span<double> signal);

struct GroupFistaResult {
  std::vector<std::vector<double>> signals;  ///< [lead][sample].
  int iterations_run = 0;
};

/// Joint multi-lead reconstruction; `ys[l]` holds lead l's measurements
/// (all leads sensed with the same Phi, as on the node).
GroupFistaResult group_fista_reconstruct(const SensingMatrix& phi,
                                         std::span<const std::vector<double>> ys,
                                         const FistaConfig& cfg = {});

/// Joint multi-lead reconstruction with one sensing matrix per lead.
/// Sensing each lead with an *independent* matrix costs the node nothing
/// (each matrix is a stored seed) but de-correlates the measurement
/// operators, which is where most of the joint-recovery gain over
/// independent decoding comes from.
GroupFistaResult group_fista_reconstruct_multi(std::span<const SensingMatrix> phis,
                                               std::span<const std::vector<double>> ys,
                                               const FistaConfig& cfg = {});

/// Orthogonal matching pursuit baseline (greedy; for ablations).
struct OmpConfig {
  std::size_t max_atoms = 64;
  double residual_tolerance = 1e-3;  ///< Stop when ||r||/||y|| drops below.
  int dwt_levels = 5;
};

std::vector<double> omp_reconstruct(const SensingMatrix& phi, std::span<const double> y,
                                    const OmpConfig& cfg = {});

/// Reconstruction quality: SNR in dB = 10 log10(||x||^2 / ||x - xhat||^2),
/// the metric of Figure 5.
double reconstruction_snr_db(std::span<const double> reference,
                             std::span<const double> reconstructed);

/// Percentage root-mean-square difference (PRD), the companion metric.
double prd_percent(std::span<const double> reference,
                   std::span<const double> reconstructed);

}  // namespace wbsn::cs
