// Sensing matrices for compressed sensing of ECG.
//
// Mamaghanian et al. (IEEE TBME 2011) — reference [4]/[16] of the paper —
// show that *sparse binary* sensing matrices (a handful of ones per
// column) achieve near-optimal reconstruction quality while reducing the
// node-side encoding cost to d additions per input sample and shrinking
// the matrix storage to d row-indices per column.  This module provides
// that family, the one operator the node encodes with: d ones per
// column, additions only, 2 bytes of ROM per one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/opcount.hpp"
#include "kern/sparse_columns.hpp"
#include "sig/rng.hpp"

namespace wbsn::cs {

/// Largest row and column counts a SensingMatrix can index: each entry
/// stores its row and column as 16-bit indices.  The factories throw
/// std::length_error past them.
inline constexpr std::size_t kMaxSensingRows = 65536;
inline constexpr std::size_t kMaxSensingCols = 65536;

/// m x n sparse binary sensing operator, stored as its ones in
/// column-major order: the row and column of each entry.  finish() adds
/// the row lists the host-side apply gathers from (kern::RowGather).
class SensingMatrix {
 public:
  /// Sparse binary: exactly `ones_per_column` ones in random rows of each
  /// column (distinct rows), scaled implicitly by 1 (integer encoder).
  static SensingMatrix make_sparse_binary(std::size_t m, std::size_t n,
                                          std::size_t ones_per_column, sig::Rng& rng);

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }
  std::size_t nonzeros() const { return rows_.size(); }

  /// Node-side encode: y = Phi x over integers (adds only).
  std::vector<std::int64_t> encode(std::span<const std::int32_t> x,
                                   dsp::OpCount* ops = nullptr) const;

  /// Host-side apply / adjoint in double precision (for the solver), run
  /// straight from the stored row indices by the kern layer's sparse
  /// column kernels — one implementation for every backend.
  std::vector<double> apply(std::span<const double> x) const;
  std::vector<double> apply_adjoint(std::span<const double> y) const;

  /// Allocation-free variants writing into caller-owned buffers
  /// (y.size() == rows(), x.size() == cols()).
  void apply_into(std::span<const double> x, std::span<double> y) const;
  void apply_adjoint_into(std::span<const double> y, std::span<double> x) const;

  /// The stored layout, as the kern operator kernels read it (valid while
  /// this matrix lives).
  kern::SparseColumns columns() const;

  /// The same operator over x in split order (even samples, then odd
  /// ones): what the FISTA solver's time-domain buffers hold.  Needs an
  /// even column count.
  kern::SparseColumns split_columns() const;

  /// Lipschitz constant of the composed operator's gradient (largest
  /// squared singular value, 40 power iterations) — computed once at
  /// construction so solves never pay for it.  Bit-identical to the
  /// historical per-solve power iteration: same sums, same order.
  double lipschitz() const { return lipschitz_; }

  /// Bytes of node ROM needed to store the matrix (one 16-bit row index
  /// per one).
  std::size_t storage_bytes() const;

 private:
  SensingMatrix(std::size_t m, std::size_t n, std::size_t d)
      : m_(m), n_(n), ones_per_column_(d) {}

  /// Builds the row lists and caches the Lipschitz constant; called once
  /// by the factory so the matrix is immutable — and safely shared across
  /// solver threads — from then on.
  void finish();

  kern::SparseColumns view(bool split) const;

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint16_t> rows_;  ///< Row of each entry.
  std::vector<std::uint16_t> cols_;  ///< Column of each entry (non-decreasing).
  std::size_t ones_per_column_ = 0;  ///< d: every column's weight.
  kern::RowGather gather_;           ///< Row lists for apply, by finish().
  double lipschitz_ = 1.0;           ///< Cached by finish().
};

/// Compression ratio (%) for a window of n samples measured with m rows:
/// CR = (1 - m/n) * 100, the definition used by Figure 5.
double compression_ratio_percent(std::size_t m, std::size_t n);

/// Inverse: measurement count for a target CR (%).
std::size_t rows_for_cr(double cr_percent, std::size_t n);

}  // namespace wbsn::cs
