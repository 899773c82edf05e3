// The solver hot path's stamp plan: StampedMatrix pattern discovery /
// bound-mode refill, the missed() drift counter, and SparseFactor's
// factorize-once / refactorize-per-iteration split. These are the
// invariants the engine's zero-allocation Newton loop rests on (see
// docs/PERFORMANCE.md).
#include "circuit/mna.hpp"
#include "circuit/testbench.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

namespace {

using namespace ssnkit;
using numeric::Matrix;
using numeric::SparseFactor;
using numeric::StampedMatrix;
using numeric::Vector;

// --- StampedMatrix ----------------------------------------------------------

TEST(StampedMatrix, DiscoveryPassDoublesAsAssembly) {
  StampedMatrix m;
  m.begin_pattern(3);
  EXPECT_TRUE(m.discovering());
  m.add(0, 0, 2.0);
  m.add(0, 1, -1.0);
  m.add(1, 1, 3.0);
  m.add(2, 2, 4.0);
  m.add(0, 0, 0.5);  // duplicate coordinates merge
  m.finalize_pattern();
  EXPECT_TRUE(m.has_pattern());
  EXPECT_EQ(m.nonzeros(), 4u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);  // absent => 0
}

TEST(StampedMatrix, BoundModeRefillsWithoutChangingPattern) {
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.finalize_pattern();
  const std::size_t epoch = m.epoch();

  m.clear();
  m.add(0, 0, 7.0);
  m.add(1, 1, -2.0);
  EXPECT_EQ(m.missed(), 0u);
  EXPECT_EQ(m.epoch(), epoch);  // refill does not bump the epoch
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -2.0);
}

TEST(StampedMatrix, OutOfPatternAddIsCountedNotStored) {
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.finalize_pattern();

  m.clear();
  m.add(0, 1, 5.0);  // not in the pattern
  EXPECT_EQ(m.missed(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  m.clear();  // clear() resets the drift counter
  EXPECT_EQ(m.missed(), 0u);
}

TEST(StampedMatrix, FinalizeBumpsEpoch) {
  StampedMatrix m;
  m.begin_pattern(1);
  m.add(0, 0, 1.0);
  m.finalize_pattern();
  const std::size_t e1 = m.epoch();
  m.begin_pattern(1);
  m.add(0, 0, 1.0);
  m.finalize_pattern();
  EXPECT_GT(m.epoch(), e1);
}

TEST(StampedMatrix, MulIntoMatchesDense) {
  StampedMatrix m;
  m.begin_pattern(3);
  m.add(0, 0, 2.0);
  m.add(0, 2, 1.0);
  m.add(1, 1, -3.0);
  m.add(2, 0, 4.0);
  m.add(2, 2, 5.0);
  m.finalize_pattern();
  Vector x(3);
  x[0] = 1.0;
  x[1] = 2.0;
  x[2] = -1.0;
  Vector y(3);
  m.mul_into(x, y);
  const Matrix d = m.to_dense();
  for (std::size_t r = 0; r < 3; ++r) {
    double want = 0.0;
    for (std::size_t c = 0; c < 3; ++c) want += d(r, c) * x[c];
    EXPECT_DOUBLE_EQ(y[r], want);
  }
}

// --- stamped assembly vs dense assembly on a real circuit -------------------

TEST(StampPlan, StampedAssemblyMatchesDenseOnTestbench) {
  // A distinct input delay per driver keeps all six drivers unfolded, so
  // the comparison runs on the full 6-driver matrix.
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 6;
  for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
  auto bench = circuit::make_ssn_testbench(spec);
  ASSERT_EQ(bench.circuit.finalize(), 4 + 3 * spec.n_drivers);
  const Vector x = sim::dc_operating_point(bench.circuit).solution;
  const std::size_t n = std::size_t(bench.circuit.unknown_count());

  Matrix dense(n, n);
  Vector b_dense(n);
  {
    circuit::StampContext ctx;
    ctx.mode = circuit::AnalysisMode::kDc;
    ctx.x = &x;
    ctx.a = &dense;
    ctx.b = &b_dense;
    for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
  }

  StampedMatrix sm;
  Vector b_sparse(n);
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kDc;
  ctx.x = &x;
  ctx.sa = &sm;
  ctx.b = &b_sparse;
  sm.begin_pattern(n);
  for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
  sm.finalize_pattern();

  const Matrix got = sm.to_dense();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(got(r, c), dense(r, c)) << "entry (" << r << "," << c << ")";
    EXPECT_DOUBLE_EQ(b_sparse[r], b_dense[r]) << "rhs row " << r;
  }

  // Bound-mode refill of the cached pattern reproduces the same matrix
  // with zero misses — the invariant the engine's debug assert checks.
  sm.clear();
  b_sparse.fill(0.0);
  for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
  EXPECT_EQ(sm.missed(), 0u);
  const Matrix refilled = sm.to_dense();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(refilled(r, c), dense(r, c));
}

// --- SparseFactor -----------------------------------------------------------

StampedMatrix small_system() {
  // Unsymmetric, needs pivoting on column 0 (zero diagonal head).
  StampedMatrix m;
  m.begin_pattern(3);
  m.add(0, 0, 0.0);  // exact zero kept in the pattern
  m.add(0, 1, 2.0);
  m.add(1, 0, 1.0);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 3.0);
  m.finalize_pattern();
  return m;
}

TEST(SparseFactor, AgreesWithDenseLu) {
  StampedMatrix m = small_system();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));
  EXPECT_FALSE(f.singular());
  EXPECT_EQ(f.pattern_epoch(), m.epoch());

  Vector b(3);
  b[0] = 1.0;
  b[1] = -2.0;
  b[2] = 0.5;
  Vector x(3);
  f.solve(b, x);

  const Vector want = numeric::LuFactorization(m.to_dense()).solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], want[i], 1e-12);
}

TEST(SparseFactor, RefactorizeMatchesFreshFactorize) {
  StampedMatrix m = small_system();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));

  // New values, same pattern (the exact-zero slot stays zero).
  m.clear();
  m.add(0, 1, 5.0);
  m.add(1, 0, 2.0);
  m.add(1, 2, -1.0);
  m.add(2, 1, 0.5);
  m.add(2, 2, 4.0);
  ASSERT_TRUE(f.refactorize(m));

  Vector b(3);
  b[0] = 3.0;
  b[1] = 1.0;
  b[2] = -1.0;
  Vector x_re(3);
  f.solve(b, x_re);

  SparseFactor fresh;
  ASSERT_TRUE(fresh.factorize(m));
  Vector x_fresh(3);
  fresh.solve(b, x_fresh);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x_re[i], x_fresh[i], 1e-12);

  // Residual check against the matrix itself.
  Vector ax(3);
  m.mul_into(x_re, ax);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(SparseFactor, RefactorizeRejectsStaleEpoch) {
  StampedMatrix m = small_system();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));

  // Rediscovering the pattern bumps the epoch; the old symbolic analysis
  // must refuse to replay over it.
  m.begin_pattern(3);
  m.add(0, 1, 2.0);
  m.add(1, 0, 1.0);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 3.0);
  m.finalize_pattern();
  EXPECT_FALSE(f.refactorize(m));
}

TEST(SparseFactor, SingularMatrixReportsAndThrows) {
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 1.0);
  m.add(0, 1, 2.0);
  m.add(1, 0, 2.0);
  m.add(1, 1, 4.0);  // row 1 = 2 * row 0
  m.finalize_pattern();

  SparseFactor f;
  EXPECT_FALSE(f.factorize(m));
  EXPECT_TRUE(f.singular());
  Vector b(2);
  b[0] = 1.0;
  b[1] = 1.0;
  Vector x(2);
  EXPECT_THROW(f.solve(b, x), support::SolverError);
}

TEST(SparseFactor, RefactorizeFlagsDegradedPivot) {
  // Factorize with a healthy diagonal, then refill with values that make
  // the frozen pivot catastrophically small relative to its column — the
  // numeric replay must report failure so the caller re-factorizes.
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 4.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 4.0);
  m.finalize_pattern();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));

  m.clear();
  m.add(0, 0, 1e-14);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1e-14);
  const bool ok = f.refactorize(m);
  if (ok) {
    // Tolerated: then the solve must still be accurate.
    Vector b(2);
    b[0] = 1.0;
    b[1] = 2.0;
    Vector x(2);
    f.solve(b, x);
    Vector ax(2);
    m.mul_into(x, ax);
    EXPECT_NEAR(ax[0], b[0], 1e-6);
    EXPECT_NEAR(ax[1], b[1], 1e-6);
  } else {
    // Degradation flagged: a fresh factorization (new pivots) succeeds.
    SparseFactor fresh;
    EXPECT_TRUE(fresh.factorize(m));
  }
}

}  // namespace
