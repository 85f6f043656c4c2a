// Sensing-operator kernels over the layout the node itself stores: the
// row index of every one, column after column (d per column for a
// sparse-binary matrix), plus an optional ±1 sign per entry.
//
// One implementation serves every backend: the kernels are scalar
// gather/scatter loops that an AVX2 gather version does not beat, so the
// Ops table does not carry them.  Two loops cover every operator:
//
//   * d = 4, unsigned — what the pipeline, the engine and the wire path
//     build — walks column c's rows at row[4c .. 4c + 4), with the column
//     weight fixed at compile time;
//   * every other operator (row-truncated degrade-tier operators with
//     ragged columns, Bernoulli ±1 operators, any other d) walks the
//     entry list once, reading each entry's column from col[].  No branch
//     depends on a column's length, which is what keeps the ragged
//     operators fast.
//
// Canonical accumulation order, the bit-exact definition of both maps:
//
//   * apply, y = Φx: y starts at +0.0 and the entries are visited in
//     column-major order, each adding sign · x[col] to its row — so every
//     row sums its terms in ascending column order;
//   * adjoint, x = Φᵀy: x starts at +0.0 and every entry adds
//     sign · y[row] to its column — so every column sums its taps in
//     stored entry order.
//
// The ±1.0 sign multiply is exact, so an operator gives the same bits
// with or without a sign array when every sign is +1.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wbsn::kern {

/// Read-only view of an m x n sparse ±1 operator whose entries are
/// stored in column-major order (ascending column; any row order within a
/// column).
struct SparseColumns {
  std::size_t rows = 0;                ///< m: length of y.
  std::size_t cols = 0;                ///< n: length of x.
  std::size_t entries = 0;             ///< Number of stored ones.
  const std::uint16_t* row = nullptr;  ///< Row of each entry.
  const std::uint16_t* col = nullptr;  ///< Column of each entry (non-decreasing).
  const std::int8_t* sign = nullptr;   ///< ±1 per entry; null when all are +1.
  /// d when every column holds exactly d entries, 0 when columns differ.
  std::size_t ones_per_column = 0;
};

/// y = Φx (y, of length rows, fully overwritten).
void sparse_apply(const SparseColumns& a, const double* x, double* y);

/// x = Φᵀy (x, of length cols, fully overwritten).
void sparse_apply_adjoint(const SparseColumns& a, const double* y, double* x);

}  // namespace wbsn::kern
