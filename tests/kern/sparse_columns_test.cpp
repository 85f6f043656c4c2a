// Property test of the sensing-operator kernels: apply (the row gather)
// and the adjoint must equal, bit for bit, a naive double loop that spells
// out the canonical accumulation order (each row sums its terms in
// ascending column order; each column sums its taps in stored entry
// order; both start at +0.0).  Covers the gather for every operator and
// both adjoint loops (d = 4 and the entry list): sparse-binary operators
// of every small d, m = 1, odd m, odd n, n not a multiple of 4, an empty
// operator, hand-built ragged entry lists, ±0.0 and NaN inputs, and the
// split-order views the solver runs.
#include "kern/sparse_columns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cs/sensing_matrix.hpp"
#include "sig/rng.hpp"

namespace wbsn::kern {
namespace {

/// Row r sums x[col] over its entries, columns ascending (the entry list
/// is column-major; expect_canonical checks that).
std::vector<double> naive_apply(const SparseColumns& a, const std::vector<double>& x) {
  std::vector<double> y(a.rows);
  for (std::size_t r = 0; r < a.rows; ++r) {
    double acc = 0.0;
    for (std::size_t e = 0; e < a.entries; ++e) {
      if (a.row[e] == r) acc += x[a.col[e]];
    }
    y[r] = acc;
  }
  return y;
}

/// Column c sums y[row] over its entries in stored order.
std::vector<double> naive_adjoint(const SparseColumns& a, const std::vector<double>& y) {
  std::vector<double> x(a.cols);
  for (std::size_t c = 0; c < a.cols; ++c) {
    double acc = 0.0;
    for (std::size_t e = 0; e < a.entries; ++e) {
      if (a.col[e] == c) acc += y[a.row[e]];
    }
    x[c] = acc;
  }
  return x;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Normal draws salted with exact ±0.0, so the signed-zero behaviour of
/// the +0.0 start is exercised too.
std::vector<double> random_input(std::size_t n, sig::Rng& rng) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = i % 5 == 0 ? (i % 10 == 0 ? -0.0 : 0.0) : rng.normal();
  }
  return v;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// x in split order: the even samples, then the odd ones.
std::vector<double> to_split(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  for (std::size_t c = 0; c < x.size(); ++c) out[(c & 1) * (x.size() / 2) + c / 2] = x[c];
  return out;
}

/// Bit-identical, except that where `b` holds a NaN `a` need only hold a
/// NaN: which operand's payload an add returns follows the operand order
/// the compiler picks (it may commute a + b), not the canonical order.
bool same_bits_or_both_nan(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(b[i]) ? !std::isnan(a[i])
                         : std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// A copy of `v` with NaNs of different payloads and signs at a few
/// positions: each must reach exactly the outputs the canonical loop
/// carries it to.
std::vector<double> with_nans(std::vector<double> v) {
  const double payloads[] = {std::nan("1"), -std::nan("2"), std::nan("")};
  for (std::size_t i = 3, p = 0; i < v.size(); i += 11, ++p) v[i] = payloads[p % 3];
  return v;
}

void expect_canonical(const cs::SensingMatrix& phi, const std::string& label, sig::Rng& rng) {
  SCOPED_TRACE(label);
  const SparseColumns a = phi.columns();
  ASSERT_EQ(a.rows, phi.rows());
  ASSERT_EQ(a.cols, phi.cols());
  ASSERT_EQ(a.entries, phi.nonzeros());
  for (std::size_t e = 1; e < a.entries; ++e) ASSERT_LE(a.col[e - 1], a.col[e]);
  const auto x = random_input(phi.cols(), rng);
  const auto y = random_input(phi.rows(), rng);

  std::vector<double> ax(phi.rows(), 123.0);
  std::vector<double> aty(phi.cols(), 123.0);
  phi.apply_into(x, ax);
  phi.apply_adjoint_into(y, aty);
  EXPECT_TRUE(bit_identical(ax, naive_apply(a, x)));
  EXPECT_TRUE(bit_identical(aty, naive_adjoint(a, y)));

  // <Phi x, y> == <x, Phi' y>: the two kernels are one operator's pair.
  const double lhs = dot(ax, y);
  const double rhs = dot(x, aty);
  EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + std::fabs(lhs)));

  // NaN inputs reach exactly the outputs they reach in the canonical loop.
  const auto x_nan = with_nans(x);
  const auto y_nan = with_nans(y);
  phi.apply_into(x_nan, ax);
  phi.apply_adjoint_into(y_nan, aty);
  EXPECT_TRUE(same_bits_or_both_nan(ax, naive_apply(a, x_nan)));
  EXPECT_TRUE(same_bits_or_both_nan(aty, naive_adjoint(a, y_nan)));

  // The split view reads x, and writes Phi' y, at split positions: the
  // same values, bit for bit.
  if (phi.cols() % 2 != 0) return;
  const SparseColumns s = phi.split_columns();
  EXPECT_TRUE(s.split);
  sparse_apply(s, to_split(x).data(), ax.data());
  EXPECT_TRUE(bit_identical(ax, naive_apply(a, x)));
  sparse_apply_adjoint(s, y.data(), aty.data());
  EXPECT_TRUE(bit_identical(aty, to_split(naive_adjoint(a, y))));
  sparse_apply(s, to_split(x_nan).data(), ax.data());
  EXPECT_TRUE(same_bits_or_both_nan(ax, naive_apply(a, x_nan)));
}

TEST(SparseColumns, ApplyAndAdjointMatchCanonicalNaiveLoops) {
  sig::Rng mrng(21);
  sig::Rng xrng(22);
  struct Shape {
    std::size_t m, n;
  };
  // m = 1, odd m, odd n, n not a multiple of 4, an empty operator, and
  // the steady pipeline shape.
  const Shape shapes[] = {{1, 7}, {13, 30}, {9, 0}, {64, 130}, {31, 101}, {256, 512}};
  for (const std::size_t d : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (const Shape s : shapes) {
      if (d > s.m) continue;
      const auto phi = cs::SensingMatrix::make_sparse_binary(s.m, s.n, d, mrng);
      const std::string label = "sparse d=" + std::to_string(d) + " m=" + std::to_string(s.m) +
                                " n=" + std::to_string(s.n);
      expect_canonical(phi, label, xrng);
    }
  }
}

TEST(SparseColumns, EmptyRowsGatherPositiveZero) {
  // More rows than entries: most rows are empty and must come out +0.0,
  // as the scatter's zero fill left them — also for all -0.0 inputs.
  sig::Rng mrng(23);
  const auto phi = cs::SensingMatrix::make_sparse_binary(64, 7, 1, mrng);
  const std::vector<double> x(phi.cols(), -0.0);
  std::vector<double> y(phi.rows(), 123.0);
  phi.apply_into(x, y);
  EXPECT_TRUE(bit_identical(y, naive_apply(phi.columns(), x)));
  for (const double v : y) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));
  }
}

TEST(SparseColumns, RowListsCoverEveryEntryOnceInGroupOrder) {
  // The row lists are a permutation of the entry list: rows ascending by
  // length, every row's columns ascending, and each group of 8 rows
  // slot-major up to its shortest row, then lane by lane.
  sig::Rng mrng(24);
  const auto phi = cs::SensingMatrix::make_sparse_binary(37, 90, 4, mrng);
  const SparseColumns a = phi.columns();
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.rows; ++i) {
    if (i > 0) {
      EXPECT_LE(a.gather_len[i - 1], a.gather_len[i]);
    }
    total += a.gather_len[i];
  }
  ASSERT_EQ(total, a.entries);
  std::vector<std::vector<std::uint16_t>> by_row(a.rows);
  for (std::size_t e = 0; e < a.entries; ++e) by_row[a.row[e]].push_back(a.col[e]);
  const std::uint16_t* col = a.gather_col;
  for (std::size_t first = 0; first < a.rows; first += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, a.rows - first);
    const std::size_t common = a.gather_len[first];
    std::vector<std::vector<std::uint16_t>> seen(lanes);
    for (std::size_t s = 0; s < common; ++s) {
      for (std::size_t l = 0; l < lanes; ++l) seen[l].push_back(*col++);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t t = common; t < a.gather_len[first + l]; ++t) seen[l].push_back(*col++);
      EXPECT_EQ(seen[l], by_row[a.gather_row[first + l]]) << "row " << a.gather_row[first + l];
    }
  }
}

// --- Random entry lists ------------------------------------------------------
// The two tests below drive kern::sparse_apply / sparse_apply_adjoint
// directly on hand-built entry lists rather than through SensingMatrix.

struct Entry {
  std::uint16_t row;
  std::uint16_t col;
};

/// Owns an entry list and exposes it as a column-major SparseColumns view
/// with its row lists.
struct EntryList {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint16_t> row, col;
  RowGather gather;  ///< Of the latest view (valid until the next).

  EntryList(std::size_t m, std::size_t n, std::vector<Entry> entries) : rows(m), cols(n) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) { return a.col < b.col; });
    for (const Entry& e : entries) {
      row.push_back(e.row);
      col.push_back(e.col);
    }
  }

  SparseColumns view(std::size_t ones_per_column = 0) {
    SparseColumns a;
    a.rows = rows;
    a.cols = cols;
    a.entries = row.size();
    a.row = row.data();
    a.col = col.data();
    a.ones_per_column = ones_per_column;
    gather = build_row_gather(a);
    gather.attach(a, /*split=*/false);
    return a;
  }
};

void expect_near_naive(const SparseColumns& a, sig::Rng& rng) {
  std::vector<double> x(a.cols);
  for (auto& v : x) v = rng.normal();
  std::vector<double> y(a.rows);
  for (auto& v : y) v = rng.normal();

  std::vector<double> ax(a.rows, -1.0);
  std::vector<double> aty(a.cols, -1.0);
  sparse_apply(a, x.data(), ax.data());
  sparse_apply_adjoint(a, y.data(), aty.data());
  const auto ax_ref = naive_apply(a, x);
  const auto aty_ref = naive_adjoint(a, y);
  for (std::size_t r = 0; r < a.rows; ++r) {
    EXPECT_NEAR(ax[r], ax_ref[r], 1e-12) << "row " << r << " of " << a.rows;
  }
  for (std::size_t c = 0; c < a.cols; ++c) {
    EXPECT_NEAR(aty[c], aty_ref[c], 1e-12) << "column " << c << " of " << a.cols;
  }
}

TEST(SparseColumns, RaggedAndFourPerColumnOperatorsMatchNaiveOnOddShapes) {
  sig::Rng rng(1);
  for (const std::size_t outputs : {1u, 2u, 3u, 4u, 5u, 7u, 33u, 64u}) {
    SCOPED_TRACE("outputs=" + std::to_string(outputs));
    const std::size_t inputs = 1 + outputs * 2;
    // Up to 9 terms per output at random columns (repeats allowed):
    // ragged columns, some empty.
    std::vector<Entry> entries;
    for (std::size_t r = 0; r < outputs; ++r) {
      const auto count = static_cast<std::size_t>(rng.uniform_int(0, 9));
      for (std::size_t i = 0; i < count; ++i) {
        entries.push_back(
            {static_cast<std::uint16_t>(r),
             static_cast<std::uint16_t>(rng.uniform_int(0, static_cast<std::int64_t>(inputs) - 1))});
      }
    }
    EntryList ragged(outputs, inputs, entries);
    expect_near_naive(ragged.view(), rng);

    // Exactly 4 ones per column: the fixed-weight loop.
    if (outputs < 4) continue;
    std::vector<Entry> regular;
    for (std::size_t c = 0; c < inputs; ++c) {
      for (std::size_t t = 0; t < 4; ++t) {
        regular.push_back(
            {static_cast<std::uint16_t>(rng.uniform_int(0, static_cast<std::int64_t>(outputs) - 1)),
             static_cast<std::uint16_t>(c)});
      }
    }
    EntryList d4(outputs, inputs, regular);
    expect_near_naive(d4.view(/*ones_per_column=*/4), rng);
  }
}

TEST(SparseColumns, ZeroRowOperatorIsHarmless) {
  // No outputs: apply must not touch y; the adjoint is all +0.0.
  EntryList empty(0, 4, {});
  const SparseColumns a = empty.view();
  double y = 123.0;
  std::vector<double> x(4, 1.0);
  sparse_apply(a, x.data(), &y);
  EXPECT_EQ(y, 123.0);
  sparse_apply_adjoint(a, &y, x.data());
  for (const double v : x) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));
  }
}

}  // namespace
}  // namespace wbsn::kern
