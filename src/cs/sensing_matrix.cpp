#include "cs/sensing_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "kern/backend.hpp"

namespace wbsn::cs {

namespace {

void check_shape(std::size_t m, std::size_t n) {
  if (m > kMaxSensingRows || n > kMaxSensingCols) {
    throw std::length_error("SensingMatrix: shape past the 16-bit entry indices");
  }
}

}  // namespace

SensingMatrix SensingMatrix::make_sparse_binary(std::size_t m, std::size_t n,
                                                std::size_t ones_per_column, sig::Rng& rng) {
  assert(ones_per_column >= 1 && ones_per_column <= m);
  check_shape(m, n);
  SensingMatrix mat(m, n, ones_per_column);
  mat.rows_.reserve(n * ones_per_column);
  mat.cols_.reserve(n * ones_per_column);
  std::vector<std::uint16_t> rows(ones_per_column);
  for (std::size_t c = 0; c < n; ++c) {
    // Sample `ones_per_column` distinct rows (Floyd's algorithm would be
    // overkill at these sizes; rejection is fine for d << m).
    std::size_t placed = 0;
    while (placed < ones_per_column) {
      const auto r =
          static_cast<std::uint16_t>(rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
      if (std::find(rows.begin(), rows.begin() + static_cast<long>(placed), r) !=
          rows.begin() + static_cast<long>(placed)) {
        continue;
      }
      rows[placed++] = r;
    }
    mat.rows_.insert(mat.rows_.end(), rows.begin(), rows.end());
    mat.cols_.insert(mat.cols_.end(), ones_per_column, static_cast<std::uint16_t>(c));
  }
  mat.finish();
  return mat;
}

void SensingMatrix::finish() {
  gather_ = kern::build_row_gather(view(false));

  // Power iteration for the Lipschitz constant, cached so solves never
  // recompute it: w = Phi'(Phi v), lambda = ||w||, v = w / lambda, 40
  // rounds from the all-ones start.  Backend-independent: the operator
  // kernels have one implementation and nrm2_sq is bit-identical across
  // backends.
  const kern::SparseColumns a = columns();
  std::vector<double> v(n_, 1.0);
  std::vector<double> wm(m_);
  std::vector<double> wn(n_);
  double lambda = 1.0;
  lipschitz_ = 1.0;
  for (int it = 0; it < 40; ++it) {
    kern::sparse_apply(a, v.data(), wm.data());
    kern::sparse_apply_adjoint(a, wm.data(), wn.data());
    lambda = std::sqrt(kern::ops().nrm2_sq(wn.data(), n_));
    if (lambda <= 0.0) return;  // Degenerate: keep lipschitz_ = 1.0.
    for (std::size_t i = 0; i < n_; ++i) v[i] = wn[i] / lambda;
  }
  lipschitz_ = std::max(lambda, 1e-9);
}

kern::SparseColumns SensingMatrix::view(bool split) const {
  kern::SparseColumns a;
  a.rows = m_;
  a.cols = n_;
  a.entries = rows_.size();
  a.row = rows_.data();
  a.col = cols_.data();
  a.ones_per_column = ones_per_column_;
  gather_.attach(a, split);
  return a;
}

kern::SparseColumns SensingMatrix::columns() const { return view(false); }

kern::SparseColumns SensingMatrix::split_columns() const {
  assert(n_ % 2 == 0);
  return view(true);
}

std::vector<std::int64_t> SensingMatrix::encode(std::span<const std::int32_t> x,
                                                dsp::OpCount* ops) const {
  assert(x.size() == n_);
  std::vector<std::int64_t> y(m_, 0);
  for (std::size_t e = 0; e < rows_.size(); ++e) {
    y[rows_[e]] += static_cast<std::int64_t>(x[cols_[e]]);
  }
  if (ops != nullptr) {
    // One sample load per column; per entry one add and the
    // load/load/store of the accumulator update.
    dsp::OpCount local;
    local.load = n_ + 2 * rows_.size();
    local.add = rows_.size();
    local.store = rows_.size();
    *ops += local;
  }
  return y;
}

std::vector<double> SensingMatrix::apply(std::span<const double> x) const {
  std::vector<double> y(m_);
  apply_into(x, y);
  return y;
}

std::vector<double> SensingMatrix::apply_adjoint(std::span<const double> y) const {
  std::vector<double> x(n_);
  apply_adjoint_into(y, x);
  return x;
}

void SensingMatrix::apply_into(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == n_ && y.size() == m_);
  kern::sparse_apply(columns(), x.data(), y.data());
}

void SensingMatrix::apply_adjoint_into(std::span<const double> y, std::span<double> x) const {
  assert(y.size() == m_ && x.size() == n_);
  kern::sparse_apply_adjoint(columns(), y.data(), x.data());
}

std::size_t SensingMatrix::storage_bytes() const { return rows_.size() * 2; }

double compression_ratio_percent(std::size_t m, std::size_t n) {
  return 100.0 * (1.0 - static_cast<double>(m) / static_cast<double>(n));
}

std::size_t rows_for_cr(double cr_percent, std::size_t n) {
  const double m = (1.0 - cr_percent / 100.0) * static_cast<double>(n);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(m)));
}

}  // namespace wbsn::cs
