#include "kern/sparse_columns.hpp"

#include <algorithm>
#include <numeric>

namespace wbsn::kern {
namespace {

/// The column weight the fast adjoint loop is compiled for.
constexpr std::size_t kD = 4;

/// Rows per gather group: 8 independent sums per slot.
constexpr std::size_t kGroup = 8;

bool is_d4(const SparseColumns& a) { return a.ones_per_column == kD; }

/// Position of column c in split order (evens, then odds).
std::size_t split_position(std::size_t c, std::size_t n) { return (c & 1) * (n / 2) + c / 2; }

/// One group of `kLanes` rows (kLanes = kGroup, or 0 for a short last
/// group of `lanes` rows); advances col past the group's entries.
template <std::size_t kLanes>
void gather_group(const SparseColumns& a, std::size_t first, std::size_t lanes,
                  const double* x, const std::uint16_t*& col, double* y) {
  const std::size_t width = kLanes != 0 ? kLanes : lanes;
  const std::uint32_t* len = a.gather_len + first;
  const std::size_t common = len[0];  // Ascending lengths: the shortest row.
  double acc[kGroup] = {};
  for (std::size_t s = 0; s < common; ++s) {
    for (std::size_t l = 0; l < width; ++l) acc[l] += x[col[l]];
    col += width;
  }
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t t = common; t < len[l]; ++t) acc[l] += x[*col++];
    y[a.gather_row[first + l]] = acc[l];
  }
}

/// Every column sums its taps in stored entry order, from +0.0.
template <bool kSplit>
void adjoint_entries(const SparseColumns& a, const double* y, double* x) {
  std::fill_n(x, a.cols, 0.0);
  for (std::size_t e = 0; e < a.entries; ++e) {
    const std::size_t c = kSplit ? split_position(a.col[e], a.cols) : a.col[e];
    x[c] += y[a.row[e]];
  }
}

double column_d4(const std::uint16_t* row, const double* y) {
  double acc = 0.0;
  for (std::size_t t = 0; t < kD; ++t) acc += y[row[t]];
  return acc;
}

void adjoint_d4(const SparseColumns& a, const double* y, double* x) {
  const std::uint16_t* row = a.row;
  for (std::size_t c = 0; c < a.cols; ++c, row += kD) x[c] = column_d4(row, y);
}

/// Split order: columns 2k and 2k+1 land at x[k] and x[n/2 + k].
void adjoint_d4_split(const SparseColumns& a, const double* y, double* x) {
  const std::size_t half = a.cols / 2;
  const std::uint16_t* row = a.row;
  for (std::size_t k = 0; k < half; ++k, row += 2 * kD) {
    x[k] = column_d4(row, y);
    x[half + k] = column_d4(row + kD, y);
  }
}

}  // namespace

void RowGather::attach(SparseColumns& a, bool split) const {
  a.gather_row = row.data();
  a.gather_len = len.data();
  a.gather_col = split ? col_split.data() : col.data();
  a.split = split;
}

RowGather build_row_gather(const SparseColumns& a) {
  // Bucket the entries by row, keeping stored (column-major) order, so
  // each row lists its entries in ascending column order.
  std::vector<std::size_t> start(a.rows + 1, 0);
  for (std::size_t e = 0; e < a.entries; ++e) ++start[a.row[e] + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> by_row(a.entries);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t e = 0; e < a.entries; ++e) by_row[fill[a.row[e]]++] = e;

  RowGather g;
  g.row.resize(a.rows);
  std::iota(g.row.begin(), g.row.end(), std::uint16_t{0});
  const auto length = [&](std::size_t r) { return start[r + 1] - start[r]; };
  std::stable_sort(g.row.begin(), g.row.end(),
                   [&](std::uint16_t p, std::uint16_t q) { return length(p) < length(q); });
  g.len.reserve(a.rows);
  for (const std::uint16_t r : g.row) g.len.push_back(static_cast<std::uint32_t>(length(r)));

  const bool even = a.cols % 2 == 0;
  g.col.reserve(a.entries);
  if (even) g.col_split.reserve(a.entries);
  const auto push = [&](std::uint16_t r, std::size_t slot) {
    const std::size_t e = by_row[start[r] + slot];
    g.col.push_back(a.col[e]);
    if (even) g.col_split.push_back(static_cast<std::uint16_t>(split_position(a.col[e], a.cols)));
  };
  for (std::size_t first = 0; first < a.rows; first += kGroup) {
    const std::size_t lanes = std::min(kGroup, a.rows - first);
    const std::size_t common = g.len[first];
    for (std::size_t s = 0; s < common; ++s) {
      for (std::size_t l = 0; l < lanes; ++l) push(g.row[first + l], s);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t t = common; t < g.len[first + l]; ++t) push(g.row[first + l], t);
    }
  }
  return g;
}

void sparse_apply(const SparseColumns& a, const double* x, double* y) {
  const std::uint16_t* col = a.gather_col;
  std::size_t first = 0;
  for (; first + kGroup <= a.rows; first += kGroup) {
    gather_group<kGroup>(a, first, kGroup, x, col, y);
  }
  if (first < a.rows) gather_group<0>(a, first, a.rows - first, x, col, y);
}

void sparse_apply_adjoint(const SparseColumns& a, const double* y, double* x) {
  if (a.split) {
    if (is_d4(a)) {
      adjoint_d4_split(a, y, x);
    } else {
      adjoint_entries<true>(a, y, x);
    }
  } else if (is_d4(a)) {
    adjoint_d4(a, y, x);
  } else {
    adjoint_entries<false>(a, y, x);
  }
}

}  // namespace wbsn::kern
