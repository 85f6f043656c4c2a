// Sensing matrices for compressed sensing of ECG.
//
// Mamaghanian et al. (IEEE TBME 2011) — reference [4]/[16] of the paper —
// show that *sparse binary* sensing matrices (a handful of ones per
// column) achieve near-optimal reconstruction quality while reducing the
// node-side encoding cost to d additions per input sample and shrinking
// the matrix storage to d row-indices per column.  This module provides
// that family plus the dense Bernoulli +/-1 baseline used in ablations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/opcount.hpp"
#include "kern/spmv_plan.hpp"
#include "sig/rng.hpp"

namespace wbsn::cs {

/// m x n sensing operator, stored column-wise as row-index lists with
/// +/-1 signs (sparse binary matrices use sign = +1 everywhere).
class SensingMatrix {
 public:
  /// Sparse binary: exactly `ones_per_column` ones in random rows of each
  /// column (distinct rows), scaled implicitly by 1 (integer encoder).
  static SensingMatrix make_sparse_binary(std::size_t m, std::size_t n,
                                          std::size_t ones_per_column, sig::Rng& rng);

  /// Dense Bernoulli +/-1.
  static SensingMatrix make_bernoulli(std::size_t m, std::size_t n, sig::Rng& rng);

  /// The operator restricted to its first `m_eff` rows: column entries
  /// with row >= m_eff are dropped (so columns may carry fewer than d
  /// ones) and the plans — including the Lipschitz constant — are rebuilt
  /// for the truncated shape.  This is how the host degrades a window to a
  /// higher compression ratio without the node re-encoding: solving the
  /// first m_eff measurements against the truncated operator is exactly
  /// the problem a shorter measurement vector would have posed.  Pure
  /// function of (this, m_eff), so a cache rebuild is bit-identical.
  /// `m_eff` must be in [1, rows()].
  SensingMatrix truncated(std::size_t m_eff) const;

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }
  std::size_t nonzeros() const { return entries_.size(); }

  /// Node-side encode: y = Phi x over integers (adds/subs only).
  std::vector<std::int64_t> encode(std::span<const std::int32_t> x,
                                   dsp::OpCount* ops = nullptr) const;

  /// Host-side apply / adjoint in double precision (for the solver).
  /// Routed through the kern layer's packed spmv plans — bit-identical
  /// across the scalar and AVX2 backends.
  std::vector<double> apply(std::span<const double> x) const;
  std::vector<double> apply_adjoint(std::span<const double> y) const;

  /// Allocation-free variants writing into caller-owned buffers
  /// (y.size() == rows(), x.size() == cols()).
  void apply_into(std::span<const double> x, std::span<double> y) const;
  void apply_adjoint_into(std::span<const double> y, std::span<double> x) const;

  /// Lipschitz constant of the composed operator's gradient (largest
  /// squared singular value, 40 power iterations) — computed once at
  /// construction so solves never pay for it.  Bit-identical to the
  /// historical per-solve power iteration: same kernels, same order.
  double lipschitz() const { return lipschitz_; }

  /// Bytes of node ROM needed to store the matrix (row indices, 16-bit,
  /// plus a sign bit-plane when any entry is negative).
  std::size_t storage_bytes() const;

 private:
  SensingMatrix(std::size_t m, std::size_t n) : m_(m), n_(n) {}

  /// Builds the packed apply/adjoint plans from entries_; called once by
  /// each factory so the matrix is immutable — and safely shared across
  /// solver threads — from then on.
  void build_plans();

  struct Entry {
    std::uint16_t row;
    std::int8_t sign;
  };
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> col_start_;  ///< n_+1 offsets into entries_.
  std::vector<Entry> entries_;
  bool has_negative_ = false;
  double lipschitz_ = 1.0;       ///< Cached by build_plans().
  kern::SpmvPlan apply_plan_;    ///< Row-major packing (outputs = rows).
  kern::SpmvPlan adjoint_plan_;  ///< Column-major packing (outputs = cols).
};

/// Compression ratio (%) for a window of n samples measured with m rows:
/// CR = (1 - m/n) * 100, the definition used by Figure 5.
double compression_ratio_percent(std::size_t m, std::size_t n);

/// Inverse: measurement count for a target CR (%).
std::size_t rows_for_cr(double cr_percent, std::size_t n);

}  // namespace wbsn::cs
