#include "cs/sensing_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace wbsn::cs {
namespace {

TEST(SensingMatrix, SparseBinaryHasExactColumnWeight) {
  sig::Rng rng(1);
  const auto phi = SensingMatrix::make_sparse_binary(64, 256, 4, rng);
  EXPECT_EQ(phi.rows(), 64u);
  EXPECT_EQ(phi.cols(), 256u);
  EXPECT_EQ(phi.nonzeros(), 256u * 4u);
}

TEST(SensingMatrix, EncodeMatchesApplyOnIntegers) {
  sig::Rng rng(2);
  const auto phi = SensingMatrix::make_sparse_binary(32, 128, 3, rng);
  std::vector<std::int32_t> x(128);
  std::vector<double> xd(128);
  for (std::size_t i = 0; i < 128; ++i) {
    x[i] = static_cast<std::int32_t>(rng.uniform_int(-500, 500));
    xd[i] = static_cast<double>(x[i]);
  }
  const auto yi = phi.encode(x);
  const auto yd = phi.apply(xd);
  ASSERT_EQ(yi.size(), 32u);
  for (std::size_t r = 0; r < 32; ++r) {
    EXPECT_DOUBLE_EQ(static_cast<double>(yi[r]), yd[r]);
  }
}

TEST(SensingMatrix, AdjointIsTrueTranspose) {
  // <Phi x, y> == <x, Phi' y> for random vectors.
  sig::Rng rng(3);
  const auto phi = SensingMatrix::make_sparse_binary(24, 64, 4, rng);
  std::vector<double> x(64);
  std::vector<double> y(24);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  const auto ax = phi.apply(x);
  const auto aty = phi.apply_adjoint(y);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < 24; ++i) lhs += ax[i] * y[i];
  for (std::size_t i = 0; i < 64; ++i) rhs += x[i] * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(SensingMatrix, EncoderUsesOnlyAdds) {
  sig::Rng rng(4);
  const auto phi = SensingMatrix::make_sparse_binary(64, 512, 4, rng);
  std::vector<std::int32_t> x(512, 9);
  dsp::OpCount ops;
  phi.encode(x, &ops);
  EXPECT_EQ(ops.mul, 0u);
  EXPECT_EQ(ops.div, 0u);
  EXPECT_EQ(ops.add, 512u * 4u);  // Exactly d adds per sample.
}

TEST(SensingMatrix, SparseBinaryStorageTiny) {
  sig::Rng rng(5);
  const auto sparse = SensingMatrix::make_sparse_binary(128, 512, 4, rng);
  // 512 cols x 4 entries x 2 bytes = 4 kB.
  EXPECT_EQ(sparse.storage_bytes(), 512u * 4u * 2u);
}

TEST(SensingMatrix, ShapeIsBoundedByTheSixteenBitEntryIndices) {
  // 65536 rows is the most a 16-bit row index addresses: the last row is
  // reachable, and one row (or column) more is refused instead of
  // wrapping to index 0.  Seed 69 places a one in the last row; the case
  // asserts that it does, so it cannot pass vacuously.
  sig::Rng rng(69);
  const auto widest = SensingMatrix::make_sparse_binary(kMaxSensingRows, 64, 16, rng);
  const kern::SparseColumns a = widest.columns();
  const auto* last = std::find(a.row, a.row + a.entries, kMaxSensingRows - 1);
  ASSERT_NE(last, a.row + a.entries) << "no one in the last row";
  std::vector<std::int32_t> x(widest.cols(), 0);
  x[a.col[last - a.row]] = 7;
  EXPECT_EQ(widest.encode(x).back(), 7);
  const std::vector<double> xd(x.begin(), x.end());
  EXPECT_EQ(widest.apply(xd).back(), 7.0);
  EXPECT_THROW(SensingMatrix::make_sparse_binary(kMaxSensingRows + 1, 1, 1, rng),
               std::length_error);
  EXPECT_THROW(SensingMatrix::make_sparse_binary(1, kMaxSensingCols + 1, 1, rng),
               std::length_error);
}

TEST(CompressionRatio, Definition) {
  EXPECT_DOUBLE_EQ(compression_ratio_percent(128, 512), 75.0);
  EXPECT_DOUBLE_EQ(compression_ratio_percent(512, 512), 0.0);
  EXPECT_EQ(rows_for_cr(75.0, 512), 128u);
  EXPECT_EQ(rows_for_cr(0.0, 512), 512u);
  // Round trip across the sweep grid.
  for (double cr = 20.0; cr < 95.0; cr += 5.0) {
    const auto m = rows_for_cr(cr, 512);
    EXPECT_NEAR(compression_ratio_percent(m, 512), cr, 0.2) << cr;
  }
}

TEST(SensingMatrix, DeterministicForSeed) {
  sig::Rng a(6);
  sig::Rng b(6);
  const auto pa = SensingMatrix::make_sparse_binary(32, 64, 3, a);
  const auto pb = SensingMatrix::make_sparse_binary(32, 64, 3, b);
  std::vector<double> x(64);
  sig::Rng rx(7);
  for (auto& v : x) v = rx.normal();
  EXPECT_EQ(pa.apply(x), pb.apply(x));
}

}  // namespace
}  // namespace wbsn::cs
