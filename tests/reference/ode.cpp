#include "reference/ode.hpp"

#include "support/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::numeric {

const char* to_string(OdeStatus status) {
  switch (status) {
    case OdeStatus::kOk: return "ok";
    case OdeStatus::kStepBudgetExhausted: return "step-budget-exhausted";
    case OdeStatus::kStepUnderflow: return "step-underflow";
  }
  return "unknown";
}

double OdeSolution::sample(double time, std::size_t k) const {
  SSN_REQUIRE(!t.empty(), "OdeSolution::sample: empty solution");
  if (time <= t.front()) return y.front()[k];
  if (time >= t.back()) return y.back()[k];
  const auto it = std::upper_bound(t.begin(), t.end(), time);
  const std::size_t hi = std::size_t(it - t.begin());
  const std::size_t lo = hi - 1;
  const double span = t[hi] - t[lo];
  const double w = span > 0.0 ? (time - t[lo]) / span : 0.0;
  return (1.0 - w) * y[lo][k] + w * y[hi][k];
}

OdeSolution rk4(const OdeRhs& f, double t0, double t1, Vector y0,
                std::size_t steps) {
  SSN_REQUIRE(steps > 0, "rk4: steps must be > 0");
  SSN_ASSERT_FINITE(y0);
  OdeSolution sol;
  sol.t.reserve(steps + 1);
  sol.y.reserve(steps + 1);
  const double h = (t1 - t0) / double(steps);
  double t = t0;
  Vector y = std::move(y0);
  sol.t.push_back(t);
  sol.y.push_back(y);
  for (std::size_t i = 0; i < steps; ++i) {
    const Vector k1 = f(t, y);
    const Vector k2 = f(t + 0.5 * h, y + 0.5 * h * k1);
    const Vector k3 = f(t + 0.5 * h, y + 0.5 * h * k2);
    const Vector k4 = f(t + h, y + h * k3);
    Vector dy = k1 + 2.0 * k2 + 2.0 * k3 + k4;
    y += (h / 6.0) * dy;
    // Step-acceptance contract: a non-finite state means the RHS blew up
    // (or was handed garbage); stop here instead of filling the solution
    // with NaNs that later look like a plausible waveform of zeros.
    SSN_ASSERT_FINITE(y);
    t = t0 + double(i + 1) * h;
    sol.t.push_back(t);
    sol.y.push_back(y);
    ++sol.steps_taken;
  }
  return sol;
}

namespace {

// Dormand–Prince RK5(4) Butcher tableau.
constexpr double kC[7] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};
constexpr double kA[7][6] = {
    {},
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84}};
constexpr double kB5[7] = {35.0 / 384,     0.0,  500.0 / 1113, 125.0 / 192,
                           -2187.0 / 6784, 11.0 / 84, 0.0};
constexpr double kB4[7] = {5179.0 / 57600,  0.0,           7571.0 / 16695,
                           393.0 / 640,     -92097.0 / 339200,
                           187.0 / 2100,    1.0 / 40};

}  // namespace

OdeSolution rk45(const OdeRhs& f, double t0, double t1, Vector y0,
                 const Rk45Options& opts) {
  const double span = t1 - t0;
  SSN_REQUIRE(span > 0.0, "rk45: t1 must be > t0");
  SSN_ASSERT_FINITE(y0);
  const std::size_t dim = y0.size();

  OdeSolution sol;
  double t = t0;
  Vector y = std::move(y0);
  sol.t.push_back(t);
  sol.y.push_back(y);

  double h = opts.initial_step > 0.0 ? opts.initial_step : span / 1000.0;
  const double h_min = opts.min_step > 0.0 ? opts.min_step : span * 1e-14;

  Vector k[7];
  while (t < t1) {
    if (sol.steps_taken + sol.steps_rejected > opts.max_steps) {
      // Keep the accepted prefix usable instead of discarding it: callers
      // inspect `status` and can still sample() everything up to sol.t.back().
      sol.status = OdeStatus::kStepBudgetExhausted;
      return sol;
    }
    h = std::min(h, t1 - t);

    k[0] = f(t, y);
    for (int s = 1; s < 7; ++s) {
      Vector ys = y;
      for (int j = 0; j < s; ++j)
        if (kA[s][j] != 0.0) ys += (h * kA[s][j]) * k[j];  // ssnlint-ignore(SSN-L001)
      k[s] = f(t + kC[s] * h, ys);
    }
    Vector y5 = y, y4 = y;
    for (int s = 0; s < 7; ++s) {
      if (kB5[s] != 0.0) y5 += (h * kB5[s]) * k[s];  // ssnlint-ignore(SSN-L001)
      if (kB4[s] != 0.0) y4 += (h * kB4[s]) * k[s];  // ssnlint-ignore(SSN-L001)
    }
    // Error norm scaled by tolerance.
    double err = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double scale =
          opts.abs_tol + opts.rel_tol * std::max(std::fabs(y[i]), std::fabs(y5[i]));
      err = std::max(err, std::fabs(y5[i] - y4[i]) / scale);
    }
    // A NaN error estimate would fail every comparison below: the step would
    // be rejected with factor 5.0 (the err > 0 test is false for NaN), h
    // would grow, and the loop would spin to the step budget. Fail fast.
    SSN_REQUIRE(std::isfinite(err),
                "rk45: non-finite error estimate (RHS returned NaN/Inf)");
    if (err <= 1.0) {
      t += h;
      y = std::move(y5);
      SSN_ASSERT_FINITE(y);
      sol.t.push_back(t);
      sol.y.push_back(y);
      ++sol.steps_taken;
    } else {
      ++sol.steps_rejected;
    }
    const double factor = err > 0.0 ? 0.9 * std::pow(err, -0.2) : 5.0;
    h *= std::clamp(factor, 0.2, 5.0);
    if (h < h_min) {
      sol.status = OdeStatus::kStepUnderflow;
      return sol;
    }
  }
  return sol;
}

}  // namespace ssnkit::numeric
