// Post-ramp analytic continuation of the LC model (extension beyond the
// paper's [0, t_r] window): continuity, agreement with RK45 over the full
// horizon, and the fast-edge case where the true peak lies after t_r.
#include "core/lc_model.hpp"
#include "reference/ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using ssnkit::core::DampingRegion;
using ssnkit::core::LcModel;
using ssnkit::core::MaxSsnCase;
using ssnkit::core::SsnScenario;
using ssnkit::numeric::rk45;
using ssnkit::numeric::Vector;

SsnScenario scenario_for(double c_mult, double slope_mult = 1.0) {
  SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.vdd = 1.8;
  s.slope = 1.8e10 * slope_mult;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  s.capacitance = s.critical_capacitance() * c_mult;
  return s;
}

TEST(PostRamp, ContinuousAtRampEnd) {
  for (double c_mult : {0.3, 1.0, 6.0}) {
    const SsnScenario s = scenario_for(c_mult);
    const LcModel m(s);
    const double tr = s.t_ramp_end();
    const double eps = tr * 1e-9;
    EXPECT_NEAR(m.vn_extended(tr - eps), m.vn_extended(tr + eps),
                1e-5 * s.v_inf())
        << c_mult;
    EXPECT_NEAR(m.vn_dot_extended(tr - eps), m.vn_dot_extended(tr + eps),
                1e-3 * std::fabs(m.vn_dot_extended(tr - eps)) + 1.0)
        << c_mult;
  }
}

class PostRampVsRk45 : public ::testing::TestWithParam<double> {};

TEST_P(PostRampVsRk45, FullTrajectoryMatchesReference) {
  const SsnScenario s = scenario_for(GetParam());
  const LcModel m(s);
  const double nlk = double(s.n_drivers) * s.inductance * s.device.k;
  const double lc = s.inductance * s.capacitance;
  // Forcing follows the clamped ramp: S before t_r, 0 after.
  const auto rhs = [&](double t, const Vector& y) {
    const double forcing = t <= s.t_ramp_end() ? nlk * s.slope : 0.0;
    return Vector{y[1],
                  (forcing - y[0] - nlk * s.device.lambda * y[1]) / lc};
  };
  const double horizon = s.t_ramp_end() * 4.0;
  // Integrate the two smooth segments separately (forcing is discontinuous
  // at t_r, which a single adaptive pass would smear).
  const auto ramp = rk45(rhs, s.t_on(), s.t_ramp_end(), Vector{0.0, 0.0});
  const auto tail = rk45(rhs, s.t_ramp_end(), horizon,
                         Vector{ramp.y.back()[0], ramp.y.back()[1]});
  for (std::size_t i = 0; i < tail.t.size(); ++i)
    EXPECT_NEAR(m.vn_extended(tail.t[i]), tail.y[i][0], 5e-6 * s.v_inf())
        << "i=" << i << " c_mult=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Regions, PostRampVsRk45,
                         ::testing::Values(0.25, 1.0, 4.0, 16.0));

TEST(PostRamp, OverdampedOvershootsThenDecays) {
  // V_n is still rising when the ramp ends (the case 1 derivative is
  // positive definite), so even the over-damped bounce keeps climbing a
  // little past t_r before relaxing — the paper's boundary value is a
  // slight underestimate of the physical peak.
  const SsnScenario s = scenario_for(0.3);
  const LcModel m(s);
  const double tr = s.t_ramp_end();
  const auto ext = m.v_max_extended();
  EXPECT_TRUE(ext.after_ramp);
  EXPECT_GT(ext.v, m.v_max());
  EXPECT_LT(ext.v, 1.3 * m.v_max());  // small overshoot, not a resonance
  // Monotone decay after the extended peak, down to ~zero.
  double prev = m.vn_extended(ext.t);
  for (double t = ext.t; t <= ext.t + 10.0 * tr; t += tr / 10.0) {
    const double v = m.vn_extended(t);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
  EXPECT_LT(m.vn_extended(ext.t + 20.0 * tr), 0.05 * m.v_max());
}

TEST(PostRamp, UnderdampedRingsAroundZero) {
  const SsnScenario s = scenario_for(12.0);
  const LcModel m(s);
  // Past the ramp the free response must cross zero (ringing).
  bool saw_negative = false;
  for (double t = s.t_ramp_end(); t <= 20.0 * s.t_ramp_end();
       t += s.t_ramp_end() / 20.0)
    if (m.vn_extended(t) < 0.0) saw_negative = true;
  EXPECT_TRUE(saw_negative);
}

TEST(PostRamp, FastEdgePeaksAfterRamp) {
  // Case 3b: the ramp ends before the resonator has swung up; the physical
  // peak is after t_r and exceeds the paper's boundary value.
  const SsnScenario s = scenario_for(9.0, /*slope_mult=*/8.0);
  const LcModel m(s);
  ASSERT_EQ(m.max_case(), MaxSsnCase::kUnderDampedBoundary);
  const auto ext = m.v_max_extended();
  EXPECT_TRUE(ext.after_ramp);
  EXPECT_GT(ext.v, m.v_max() * 1.5);
  EXPECT_GT(ext.t, s.t_ramp_end());
}

TEST(PostRamp, SlowRampPeakStaysInside) {
  // Case 3a: the first peak is inside the ramp; the extension agrees with
  // Table 1 and reports no post-ramp peak.
  const SsnScenario s = scenario_for(9.0, /*slope_mult=*/1.0 / 40.0);
  const LcModel m(s);
  ASSERT_EQ(m.max_case(), MaxSsnCase::kUnderDampedFirstPeak);
  const auto ext = m.v_max_extended();
  EXPECT_FALSE(ext.after_ramp);
  EXPECT_NEAR(ext.v, m.v_max(), 1e-9);
}

TEST(PostRamp, HorizonValidation) {
  const LcModel m(scenario_for(1.0));
  EXPECT_THROW(m.v_max_extended(m.scenario().t_ramp_end() * 0.5),
               std::invalid_argument);
}

}  // namespace
