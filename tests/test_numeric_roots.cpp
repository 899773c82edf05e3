// Scalar root finding, the stable quadratic, and the statistics helpers.
#include "numeric/polynomial.hpp"
#include "numeric/roots.hpp"
#include "numeric/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit::numeric;

TEST(Brent, FindsCosRoot) {
  const double r = brent([](double x) { return std::cos(x); }, 1.0, 2.0);
  EXPECT_NEAR(r, M_PI / 2.0, 1e-10);
}

TEST(Brent, HighMultiplicityStillConverges) {
  const double r = brent([](double x) { return (x - 1.0) * (x - 1.0) * (x - 1.0); },
                         0.0, 3.0);
  EXPECT_NEAR(r, 1.0, 1e-4);
}

TEST(Brent, NoBracketThrows) {
  EXPECT_THROW(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

TEST(Quadratic, SimpleRoots) {
  const auto r = quadratic_real_roots(1.0, -3.0, 2.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR((*r)[0], 1.0, 1e-14);
  EXPECT_NEAR((*r)[1], 2.0, 1e-14);
}

TEST(Quadratic, ComplexRootsReturnNullopt) {
  EXPECT_FALSE(quadratic_real_roots(1.0, 0.0, 1.0).has_value());
}

TEST(Quadratic, LinearDegenerate) {
  const auto r = quadratic_real_roots(0.0, 2.0, -4.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ((*r)[0], 2.0);
  EXPECT_DOUBLE_EQ((*r)[1], 2.0);
}

TEST(Quadratic, CancellationResistant) {
  // Roots 1e-8 and 1e8: the naive formula loses the small root entirely.
  const double a = 1.0, b = -(1e8 + 1e-8), c = 1.0;
  const auto r = quadratic_real_roots(a, b, c);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR((*r)[0] / 1e-8, 1.0, 1e-9);
  EXPECT_NEAR((*r)[1] / 1e8, 1.0, 1e-9);
}

TEST(Stats, BasicReductions) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(max_value(xs), 4.0);
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-14);
}

TEST(Stats, RelativeErrorFloorGuardsZeroReference) {
  EXPECT_DOUBLE_EQ(relative_error(1.0, 2.0), 0.5);
  EXPECT_LE(relative_error(1e-15, 0.0, 1e-12), 1e-3 + 1e-12);
  EXPECT_THROW(relative_error(1.0, 1.0, 0.0), std::invalid_argument);
}

}  // namespace
