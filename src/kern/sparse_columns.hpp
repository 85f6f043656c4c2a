// Sensing-operator kernels over two layouts of the same sparse binary
// entries: the column list the node itself stores (the row index of every
// one, column after column) and a row-list form built from it once per
// operator (build_row_gather).
//
// One implementation serves every backend: the kernels are plain scalar
// loops compiled without FMA, so the Ops table does not carry them.
//
//   * apply, y = Φx, gathers: every row sums its own entries in a register
//     and stores once, so no output is read-modify-written.  Rows are
//     sorted by length and cut into groups of 8; a group's entries run
//     slot-major up to its shortest row (8 independent sums per slot),
//     then each lane's tail.  There is no padding: the rows of a random
//     sparse binary operator differ in length, and all of them run the
//     same loop.
//   * adjoint, x = Φᵀy, walks the column list: a d = 4 loop fixed at
//     compile time for the production operator, and one entry-list loop
//     for every other column weight (wire windows may carry any d).
//
// Canonical accumulation order, the bit-exact definition of both maps
// (unchanged by the gather: it is the order the column-major scatter
// produced):
//
//   * apply: every row starts at +0.0 and adds x[col] over its entries in
//     ascending column order (stored order among equal columns); a row
//     without entries stays +0.0;
//   * adjoint: x starts at +0.0 and every entry adds y[row] to its column
//     — so every column sums its taps in stored entry order.
//
// Split order.  A view may take x in split order — the even samples, then
// the odd ones, so sample c sits at (c & 1)·n/2 + c/2 — which is how the
// FISTA solver lays out its time-domain buffers for the split finest DWT
// level (backend.hpp).  The row lists then store the remapped columns, and
// the adjoint writes column c at its split position.  Same values, same
// sums: only where x lives changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wbsn::kern {

/// Read-only view of an m x n sparse binary operator: its entries in
/// column-major order (ascending column; any row order within a column)
/// for the adjoint, and the row lists of the same entries for apply.
struct SparseColumns {
  std::size_t rows = 0;                ///< m: length of y.
  std::size_t cols = 0;                ///< n: length of x.
  std::size_t entries = 0;             ///< Number of stored ones.
  const std::uint16_t* row = nullptr;  ///< Row of each entry.
  const std::uint16_t* col = nullptr;  ///< Column of each entry (non-decreasing).
  /// d when every column holds exactly d entries, 0 when columns differ.
  std::size_t ones_per_column = 0;

  // Row lists (RowGather): rows in ascending length order, their lengths,
  // and every entry's column (split positions when `split`) in group
  // order.
  const std::uint16_t* gather_row = nullptr;
  const std::uint32_t* gather_len = nullptr;
  const std::uint16_t* gather_col = nullptr;
  /// x in split order (evens, then odds); cols must be even.
  bool split = false;
};

/// Owning row-list form of a column-major entry list (see the header
/// comment).  `col_split` holds the same columns at their split positions
/// and is empty when the column count is odd.
struct RowGather {
  std::vector<std::uint16_t> row;
  std::vector<std::uint32_t> len;
  std::vector<std::uint16_t> col;
  std::vector<std::uint16_t> col_split;

  /// Points `a`'s gather fields at these lists (natural or split columns)
  /// and sets a.split.
  void attach(SparseColumns& a, bool split) const;
};

/// Builds the row lists of `a`'s entry list (the gather fields of `a` are
/// not read).
RowGather build_row_gather(const SparseColumns& a);

/// y = Φx (y, of length rows, fully overwritten).
void sparse_apply(const SparseColumns& a, const double* x, double* y);

/// x = Φᵀy (x, of length cols, fully overwritten).
void sparse_apply_adjoint(const SparseColumns& a, const double* y, double* x);

}  // namespace wbsn::kern
