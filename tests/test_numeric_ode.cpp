// Reference ODE integrators and the Levenberg–Marquardt fitter.
#include "numeric/levenberg_marquardt.hpp"
#include "reference/ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit::numeric;

TEST(Rk4, ExponentialDecay) {
  // y' = -y, y(0) = 1 -> y(1) = e^-1.
  const auto sol = rk4([](double, const Vector& y) { return Vector{-y[0]}; }, 0.0,
                       1.0, Vector{1.0}, 200);
  EXPECT_NEAR(sol.y.back()[0], std::exp(-1.0), 1e-9);
}

TEST(Rk4, FourthOrderConvergence) {
  const auto err_with = [](std::size_t steps) {
    const auto sol = rk4([](double, const Vector& y) { return Vector{-y[0]}; },
                         0.0, 1.0, Vector{1.0}, steps);
    return std::fabs(sol.y.back()[0] - std::exp(-1.0));
  };
  const double e1 = err_with(20);
  const double e2 = err_with(40);
  // Halving h should shrink the error by ~2^4.
  EXPECT_GT(e1 / e2, 12.0);
  EXPECT_LT(e1 / e2, 20.0);
}

TEST(Rk45, HarmonicOscillatorEnergy) {
  // y'' = -y as a system; after a full period the state returns.
  const auto rhs = [](double, const Vector& y) { return Vector{y[1], -y[0]}; };
  Rk45Options opts;
  opts.rel_tol = 1e-10;
  opts.abs_tol = 1e-12;
  const auto sol = rk45(rhs, 0.0, 2.0 * M_PI, Vector{1.0, 0.0}, opts);
  EXPECT_NEAR(sol.y.back()[0], 1.0, 1e-7);
  EXPECT_NEAR(sol.y.back()[1], 0.0, 1e-7);
  EXPECT_GT(sol.steps_taken, 10u);
}

TEST(Rk45, AdaptivityRejectsSteps) {
  // A stiff-ish transition forces rejections with a large initial step.
  const auto rhs = [](double t, const Vector& y) {
    return Vector{-100.0 * (y[0] - std::sin(t))};
  };
  Rk45Options opts;
  opts.initial_step = 0.5;
  const auto sol = rk45(rhs, 0.0, 1.0, Vector{0.0}, opts);
  EXPECT_GT(sol.steps_rejected, 0u);
}

TEST(Rk45, SampleInterpolates) {
  const auto sol = rk4([](double, const Vector&) { return Vector{1.0}; }, 0.0, 1.0,
                       Vector{0.0}, 10);
  EXPECT_NEAR(sol.sample(0.55), 0.55, 1e-12);
  EXPECT_NEAR(sol.sample(-1.0), 0.0, 1e-12);  // clamped
  EXPECT_NEAR(sol.sample(2.0), 1.0, 1e-12);
}

TEST(Rk45, BadSpanThrows) {
  EXPECT_THROW(rk45([](double, const Vector& y) { return y; }, 1.0, 0.0,
                    Vector{1.0}),
               std::invalid_argument);
}

TEST(Rk45, StepBudgetReturnsTruncatedPrefix) {
  // A tiny step budget cannot reach t1; the accepted prefix must come back
  // with the status flag instead of an exception, and stay sampleable.
  const auto rhs = [](double, const Vector& y) { return Vector{-y[0]}; };
  Rk45Options opts;
  opts.rel_tol = 1e-12;
  opts.abs_tol = 1e-14;
  opts.max_steps = 10;
  const auto sol = rk45(rhs, 0.0, 1.0, Vector{1.0}, opts);
  EXPECT_EQ(sol.status, OdeStatus::kStepBudgetExhausted);
  EXPECT_FALSE(sol.ok());
  ASSERT_GE(sol.t.size(), 2u);
  EXPECT_LT(sol.t.back(), 1.0);
  // The prefix is a valid trajectory of the ODE.
  const double t_end = sol.t.back();
  EXPECT_NEAR(sol.sample(t_end), std::exp(-t_end), 1e-6);
}

TEST(Rk45, StepUnderflowReturnsTruncatedPrefix) {
  // A violently stiff RHS with min_step close to the initial step: every
  // trial step is rejected until h underflows. The initial point survives.
  const auto rhs = [](double, const Vector& y) { return Vector{-1e12 * y[0]}; };
  Rk45Options opts;
  opts.initial_step = 0.5;
  opts.min_step = 0.4;
  const auto sol = rk45(rhs, 0.0, 1.0, Vector{1.0}, opts);
  EXPECT_EQ(sol.status, OdeStatus::kStepUnderflow);
  EXPECT_FALSE(sol.ok());
  ASSERT_GE(sol.t.size(), 1u);
  EXPECT_DOUBLE_EQ(sol.t.front(), 0.0);
  EXPECT_DOUBLE_EQ(sol.sample(0.0), 1.0);
  EXPECT_LT(sol.t.back(), 1.0);
}

TEST(Rk45, CleanRunReportsOk) {
  const auto sol = rk45(
      [](double, const Vector& y) { return Vector{-y[0]}; }, 0.0, 1.0,
      Vector{1.0});
  EXPECT_EQ(sol.status, OdeStatus::kOk);
  EXPECT_TRUE(sol.ok());
}

TEST(Lm, FitsExponential) {
  // Data from y = 3*exp(-2x); recover (a, b) from y = a*exp(-b x).
  const int n = 30;
  std::vector<double> xs(n), ys(n);
  for (int i = 0; i < n; ++i) {
    xs[std::size_t(i)] = 0.1 * i;
    ys[std::size_t(i)] = 3.0 * std::exp(-2.0 * xs[std::size_t(i)]);
  }
  const auto residual = [&](const Vector& p, Vector& r) {
    for (int i = 0; i < n; ++i)
      r[std::size_t(i)] = p[0] * std::exp(-p[1] * xs[std::size_t(i)]) -
                          ys[std::size_t(i)];
  };
  const auto fit = levenberg_marquardt(residual, Vector{1.0, 1.0}, n);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.parameters[0], 3.0, 1e-5);
  EXPECT_NEAR(fit.parameters[1], 2.0, 1e-5);
  EXPECT_LT(fit.residual_norm, 1e-6);
}

TEST(Lm, RespectsBounds) {
  // Unconstrained optimum at p = 5; bound caps it at 2.
  const auto residual = [](const Vector& p, Vector& r) { r[0] = p[0] - 5.0; };
  LmOptions opts;
  opts.lower_bounds = Vector{0.0};
  opts.upper_bounds = Vector{2.0};
  const auto fit = levenberg_marquardt(residual, Vector{1.0}, 1, opts);
  EXPECT_NEAR(fit.parameters[0], 2.0, 1e-8);
}

TEST(Lm, FewerResidualsThanParamsThrows) {
  const auto residual = [](const Vector&, Vector& r) { r[0] = 0.0; };
  EXPECT_THROW(levenberg_marquardt(residual, Vector{1.0, 2.0}, 1),
               std::invalid_argument);
}

TEST(Lm, AlreadyConvergedStaysPut) {
  const auto residual = [](const Vector& p, Vector& r) { r[0] = p[0] - 1.0; };
  const auto fit = levenberg_marquardt(residual, Vector{1.0}, 1);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.parameters[0], 1.0, 1e-12);
}

}  // namespace
