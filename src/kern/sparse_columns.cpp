#include "kern/sparse_columns.hpp"

#include <algorithm>

namespace wbsn::kern {
namespace {

/// The column weight the fast loop is compiled for.
constexpr std::size_t kD = 4;

bool is_d4(const SparseColumns& a) { return a.sign == nullptr && a.ones_per_column == kD; }

template <bool kSigned>
void apply_entries(const SparseColumns& a, const double* x, double* y) {
  for (std::size_t e = 0; e < a.entries; ++e) {
    const double v = x[a.col[e]];
    y[a.row[e]] += kSigned ? static_cast<double>(a.sign[e]) * v : v;
  }
}

template <bool kSigned>
void adjoint_entries(const SparseColumns& a, const double* y, double* x) {
  for (std::size_t e = 0; e < a.entries; ++e) {
    const double v = y[a.row[e]];
    x[a.col[e]] += kSigned ? static_cast<double>(a.sign[e]) * v : v;
  }
}

}  // namespace

void sparse_apply(const SparseColumns& a, const double* x, double* y) {
  std::fill_n(y, a.rows, 0.0);
  if (is_d4(a)) {
    const std::uint16_t* row = a.row;
    for (std::size_t c = 0; c < a.cols; ++c, row += kD) {
      const double v = x[c];
      for (std::size_t t = 0; t < kD; ++t) y[row[t]] += v;
    }
  } else if (a.sign != nullptr) {
    apply_entries<true>(a, x, y);
  } else {
    apply_entries<false>(a, x, y);
  }
}

void sparse_apply_adjoint(const SparseColumns& a, const double* y, double* x) {
  if (is_d4(a)) {
    const std::uint16_t* row = a.row;
    for (std::size_t c = 0; c < a.cols; ++c, row += kD) {
      double acc = 0.0;
      for (std::size_t t = 0; t < kD; ++t) acc += y[row[t]];
      x[c] = acc;
    }
    return;
  }
  std::fill_n(x, a.cols, 0.0);
  if (a.sign != nullptr) {
    adjoint_entries<true>(a, y, x);
  } else {
    adjoint_entries<false>(a, y, x);
  }
}

}  // namespace wbsn::kern
