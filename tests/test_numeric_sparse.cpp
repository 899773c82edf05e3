// Sparse matrix + Gilbert–Peierls LU, validated against the dense solver.
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace ssnkit::numeric;

TEST(SparseMatrix, BuildAndLookup) {
  SparseMatrix s(3, 3);
  s.add(0, 0, 2.0);
  s.add(1, 2, 5.0);
  s.add(1, 2, 1.0);  // duplicate accumulates
  EXPECT_DOUBLE_EQ(s.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(s.at(2, 2), 0.0);
  EXPECT_EQ(s.nonzeros(), 2u);
  EXPECT_THROW(s.add(3, 0, 1.0), std::out_of_range);
}

TEST(SparseMatrix, FromDenseRoundTrip) {
  Matrix d{{1.0, 0.0, 2.0}, {0.0, 3.0, 0.0}, {4.0, 0.0, 5.0}};
  const SparseMatrix s = SparseMatrix::from_dense(d);
  EXPECT_EQ(s.nonzeros(), 5u);
  const Matrix back = s.to_dense();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(back(r, c), d(r, c));
}

TEST(SparseMatrix, MatVec) {
  SparseMatrix s(2, 3);
  s.add(0, 0, 1.0);
  s.add(0, 2, 2.0);
  s.add(1, 1, 3.0);
  const Vector y = s.mul(Vector{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_THROW(s.mul(Vector{1.0}), std::invalid_argument);
}

TEST(SparseLu, SolvesSmallSystem) {
  SparseMatrix a(2, 2);
  a.add(0, 0, 2.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 3.0);
  SparseLu lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SparseLu, PivotsZeroDiagonal) {
  // MNA-style: voltage-source branch rows have structural zeros on the
  // diagonal, which is what kills naive no-pivot sparse solvers.
  SparseMatrix a(2, 2);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  SparseLu lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{2.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, DetectsSingular) {
  SparseMatrix a(2, 2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 2.0);
  a.add(1, 1, 4.0);
  SparseLu lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve(Vector{1.0, 1.0}), std::runtime_error);
  // Structurally empty column.
  SparseMatrix b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 0, 1.0);
  EXPECT_TRUE(SparseLu(b).singular());
}

TEST(SparseLu, NonSquareThrows) {
  SparseMatrix a(2, 3);
  EXPECT_THROW(SparseLu{a}, std::invalid_argument);
}

TEST(SparseLu, TridiagonalHasLinearFill) {
  // A tridiagonal system factors with O(n) fill — the point of sparsity.
  const std::size_t n = 200;
  SparseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i > 0) a.add(i, i - 1, -1.0);
    if (i + 1 < n) a.add(i, i + 1, -1.0);
  }
  SparseLu lu(a);
  ASSERT_FALSE(lu.singular());
  EXPECT_LT(lu.factor_nonzeros(), 4 * n);  // ~3n for a tridiagonal
  // Check the solution against the residual.
  Vector b(n, 1.0);
  const Vector x = lu.solve(b);
  const Vector r = a.mul(x) - b;
  EXPECT_LT(r.norm_inf(), 1e-10);
}

class SparseVsDense : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDense, RandomSparseSystemsAgree) {
  const std::size_t n = std::size_t(GetParam());
  std::mt19937 rng(unsigned(1234 + GetParam()));
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_int_distribution<std::size_t> col(0, n - 1);

  Matrix dense(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    dense(r, r) = 6.0 + val(rng);  // dominant diagonal keeps it nonsingular
    for (int k = 0; k < 4; ++k) dense(r, col(rng)) += val(rng);
  }
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = val(rng);

  const Vector x_dense = LuFactorization(dense).solve(b);
  SparseLu sparse(SparseMatrix::from_dense(dense));
  ASSERT_FALSE(sparse.singular());
  const Vector x_sparse = sparse.solve(b);
  EXPECT_LT((x_dense - x_sparse).norm_inf(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseVsDense,
                         ::testing::Values(3, 10, 37, 64, 150));

TEST(SparseLu, PermutedIdentity) {
  const std::size_t n = 20;
  SparseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a.add(i, (i + 7) % n, 1.0);
  SparseLu lu(a);
  ASSERT_FALSE(lu.singular());
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = double(i);
  const Vector x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[(i + 7) % n], double(i), 1e-12);
}

}  // namespace
