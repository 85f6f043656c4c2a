#include "cs/sensing_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kern/backend.hpp"

namespace wbsn::cs {

SensingMatrix SensingMatrix::make_sparse_binary(std::size_t m, std::size_t n,
                                                std::size_t ones_per_column, sig::Rng& rng) {
  assert(ones_per_column >= 1 && ones_per_column <= m);
  SensingMatrix mat(m, n);
  mat.col_start_.reserve(n + 1);
  mat.entries_.reserve(n * ones_per_column);
  std::vector<std::uint16_t> rows(ones_per_column);
  for (std::size_t c = 0; c < n; ++c) {
    mat.col_start_.push_back(static_cast<std::uint32_t>(mat.entries_.size()));
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
    for (std::size_t i = 0; i < ones_per_column; ++i) {
      mat.entries_.push_back({rows[i], +1});
    }
  }
  mat.col_start_.push_back(static_cast<std::uint32_t>(mat.entries_.size()));
  mat.build_plans();
  return mat;
}

SensingMatrix SensingMatrix::make_bernoulli(std::size_t m, std::size_t n, sig::Rng& rng) {
  SensingMatrix mat(m, n);
  mat.has_negative_ = true;
  mat.col_start_.reserve(n + 1);
  mat.entries_.reserve(n * m);
  for (std::size_t c = 0; c < n; ++c) {
    mat.col_start_.push_back(static_cast<std::uint32_t>(mat.entries_.size()));
    for (std::size_t r = 0; r < m; ++r) {
      mat.entries_.push_back(
          {static_cast<std::uint16_t>(r), rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1}});
    }
  }
  mat.col_start_.push_back(static_cast<std::uint32_t>(mat.entries_.size()));
  mat.build_plans();
  return mat;
}

SensingMatrix SensingMatrix::truncated(std::size_t m_eff) const {
  assert(m_eff >= 1 && m_eff <= m_);
  SensingMatrix mat(m_eff, n_);
  mat.has_negative_ = has_negative_;
  mat.col_start_.reserve(n_ + 1);
  mat.entries_.reserve(entries_.size());
  for (std::size_t c = 0; c < n_; ++c) {
    mat.col_start_.push_back(static_cast<std::uint32_t>(mat.entries_.size()));
    for (std::uint32_t e = col_start_[c]; e < col_start_[c + 1]; ++e) {
      if (entries_[e].row < m_eff) mat.entries_.push_back(entries_[e]);
    }
  }
  mat.col_start_.push_back(static_cast<std::uint32_t>(mat.entries_.size()));
  // Rebuilds the packed plans AND the Lipschitz constant: dropping rows
  // shrinks the operator's largest singular value, and a solve stepping
  // with the full-operator constant would converge needlessly slowly.
  mat.build_plans();
  return mat;
}

void SensingMatrix::build_plans() {
  // Adjoint outputs are the columns — the entry lists are already
  // column-major, so each output's canonical term order is the stored
  // entry order.
  std::vector<kern::SpmvTerms> cols(n_);
  for (std::size_t c = 0; c < n_; ++c) {
    cols[c].reserve(col_start_[c + 1] - col_start_[c]);
    for (std::uint32_t e = col_start_[c]; e < col_start_[c + 1]; ++e) {
      cols[c].emplace_back(static_cast<std::int32_t>(entries_[e].row),
                           static_cast<double>(entries_[e].sign));
    }
  }
  adjoint_plan_ = kern::build_spmv_plan(m_, cols);

  // Apply outputs are the rows; scanning columns in ascending order gives
  // each row its terms in ascending-column order, the same order the
  // original scatter loop accumulated in.
  std::vector<kern::SpmvTerms> rows(m_);
  for (std::size_t c = 0; c < n_; ++c) {
    for (std::uint32_t e = col_start_[c]; e < col_start_[c + 1]; ++e) {
      rows[entries_[e].row].emplace_back(static_cast<std::int32_t>(c),
                                         static_cast<double>(entries_[e].sign));
    }
  }
  apply_plan_ = kern::build_spmv_plan(n_, rows);

  // Power iteration for the Lipschitz constant, cached so solves never
  // recompute it.  Arithmetic (and thus bits) matches the historical
  // per-solve loop exactly: w = Phi'(Phi v), lambda = ||w||, v = w / lambda,
  // 40 rounds from the all-ones start.  Backend-independent by the kern
  // parity contract.
  const auto& k = kern::ops();
  std::vector<double> v(n_, 1.0);
  std::vector<double> wm(m_);
  std::vector<double> wn(n_);
  double lambda = 1.0;
  lipschitz_ = 1.0;
  for (int it = 0; it < 40; ++it) {
    k.spmv(apply_plan_, v.data(), wm.data());
    k.spmv(adjoint_plan_, wm.data(), wn.data());
    lambda = std::sqrt(k.nrm2_sq(wn.data(), n_));
    if (lambda <= 0.0) return;  // Degenerate: keep lipschitz_ = 1.0.
    for (std::size_t i = 0; i < n_; ++i) v[i] = wn[i] / lambda;
  }
  lipschitz_ = std::max(lambda, 1e-9);
}

std::vector<std::int64_t> SensingMatrix::encode(std::span<const std::int32_t> x,
                                                dsp::OpCount* ops) const {
  assert(x.size() == n_);
  dsp::OpCount local;
  std::vector<std::int64_t> y(m_, 0);
  for (std::size_t c = 0; c < n_; ++c) {
    const auto v = static_cast<std::int64_t>(x[c]);
    local.load += 1;
    for (std::uint32_t e = col_start_[c]; e < col_start_[c + 1]; ++e) {
      const auto& entry = entries_[e];
      if (entry.sign > 0) {
        y[entry.row] += v;
      } else {
        y[entry.row] -= v;
      }
      local.add += 1;
      local.load += 2;
      local.store += 1;
    }
  }
  if (ops != nullptr) *ops += local;
  return y;
}

std::vector<double> SensingMatrix::apply(std::span<const double> x) const {
  assert(x.size() == n_);
  std::vector<double> y(m_);
  kern::ops().spmv(apply_plan_, x.data(), y.data());
  return y;
}

std::vector<double> SensingMatrix::apply_adjoint(std::span<const double> y) const {
  assert(y.size() == m_);
  std::vector<double> x(n_);
  kern::ops().spmv(adjoint_plan_, y.data(), x.data());
  return x;
}

void SensingMatrix::apply_into(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == n_ && y.size() == m_);
  kern::ops().spmv(apply_plan_, x.data(), y.data());
}

void SensingMatrix::apply_adjoint_into(std::span<const double> y, std::span<double> x) const {
  assert(y.size() == m_ && x.size() == n_);
  kern::ops().spmv(adjoint_plan_, y.data(), x.data());
}

std::size_t SensingMatrix::storage_bytes() const {
  // 16-bit row index per non-zero; +1 bit per entry for signs if any.
  std::size_t bytes = entries_.size() * 2;
  if (has_negative_) bytes += (entries_.size() + 7) / 8;
  return bytes;
}

double compression_ratio_percent(std::size_t m, std::size_t n) {
  return 100.0 * (1.0 - static_cast<double>(m) / static_cast<double>(n));
}

std::size_t rows_for_cr(double cr_percent, std::size_t n) {
  const double m = (1.0 - cr_percent / 100.0) * static_cast<double>(n);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(m)));
}

}  // namespace wbsn::cs
