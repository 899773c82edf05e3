// Dense linear algebra: Vector/Matrix arithmetic, LU, QR, least squares.
#include "numeric/least_squares.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace {

using ssnkit::numeric::LuFactorization;
using ssnkit::numeric::Matrix;
using ssnkit::numeric::QrFactorization;
using ssnkit::numeric::solve_least_squares;
using ssnkit::numeric::Vector;

TEST(Vector, BasicArithmetic) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  const Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 5.0);
  EXPECT_DOUBLE_EQ(sum[2], 9.0);
  const Vector diff = b - a;
  EXPECT_DOUBLE_EQ(diff[1], 3.0);
  const Vector scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled[2], 6.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 3.0);
  EXPECT_NEAR(a.norm2(), std::sqrt(14.0), 1e-15);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a{1.0, 2.0};
  Vector b{1.0, 2.0, 3.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a.dot(b), std::invalid_argument);
}

TEST(Vector, BoundsCheckedAccess) {
  Vector a{1.0};
  EXPECT_THROW(a.at(1), std::out_of_range);
  EXPECT_DOUBLE_EQ(a.at(0), 1.0);
}

TEST(Matrix, InitializerAndTranspose) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  const Matrix t = m.transposed();
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, MatVecAndMatMat) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Vector x{1.0, 1.0};
  const Vector y = m * x;
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Matrix sq = m * m;
  EXPECT_DOUBLE_EQ(sq(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(sq(1, 1), 22.0);
}

TEST(Matrix, IdentityMultiplication) {
  const Matrix id = Matrix::identity(3);
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 10.0}};
  const Matrix prod = id * m;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), m(r, c));
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = LuFactorization(a).solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SingularDetected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuFactorization lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuFactorization{a}, std::invalid_argument);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = LuFactorization(a).solve(Vector{2.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + std::size_t(trial % 12);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng);
      a(r, r) += 3.0;  // keep it comfortably nonsingular
    }
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(rng);
    const Vector b = a * x_true;
    const Vector x = LuFactorization(a).solve(b);
    EXPECT_NEAR((x - x_true).norm_inf(), 0.0, 1e-10);
  }
}

TEST(Qr, ExactSquareSolve) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  QrFactorization qr(a);
  EXPECT_FALSE(qr.rank_deficient());
  const Vector x = qr.solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
  EXPECT_NEAR(qr.residual_norm(Vector{3.0, 5.0}), 0.0, 1e-12);
}

TEST(Qr, OverdeterminedLeastSquares) {
  // Fit y = 2 + 3x exactly through noisy-free points.
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  Vector b{2.0, 5.0, 8.0, 11.0};
  const auto fit = solve_least_squares(a, b);
  EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-12);
  EXPECT_NEAR(fit.coefficients[1], 3.0, 1e-12);
  EXPECT_NEAR(fit.residual_norm, 0.0, 1e-11);
}

TEST(Qr, ResidualOfInconsistentSystem) {
  // x must split the difference between b = 0 and b = 2: residual sqrt(2).
  Matrix a{{1.0}, {1.0}};
  Vector b{0.0, 2.0};
  const auto fit = solve_least_squares(a, b);
  EXPECT_NEAR(fit.coefficients[0], 1.0, 1e-12);
  EXPECT_NEAR(fit.residual_norm, std::sqrt(2.0), 1e-12);
}

TEST(Qr, RankDeficientDetected) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  QrFactorization qr(a);
  EXPECT_TRUE(qr.rank_deficient());
  EXPECT_THROW(qr.solve(Vector{1.0, 1.0, 1.0}), std::runtime_error);
}

}  // namespace
