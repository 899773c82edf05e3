// Sensitivity (elasticity) analysis of the closed-form V_max.
#include "analysis/design.hpp"
#include "analysis/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit;
using analysis::l_only_sensitivities;
using analysis::lc_sensitivities;

core::SsnScenario base() {
  core::SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.capacitance = 0.0;
  s.vdd = 1.8;
  s.slope = 1.8e10;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  return s;
}

TEST(LOnlySensitivity, MatchesFiniteDifference) {
  const auto s = base();
  const auto sens = l_only_sensitivities(s);
  // Check the analytic elasticities against direct finite differences.
  const auto fd = [&](auto mutate) {
    const double h = 1e-5;
    core::SsnScenario up = s, dn = s;
    mutate(up, 1.0 + h);
    mutate(dn, 1.0 - h);
    return (analysis::predict_vmax(up) - analysis::predict_vmax(dn)) /
           (2.0 * h * analysis::predict_vmax(s));
  };
  EXPECT_NEAR(sens.wrt_inductance,
              fd([](core::SsnScenario& x, double f) { x.inductance *= f; }),
              1e-5);
  EXPECT_NEAR(sens.wrt_slope,
              fd([](core::SsnScenario& x, double f) { x.slope *= f; }), 1e-5);
  EXPECT_NEAR(sens.wrt_k,
              fd([](core::SsnScenario& x, double f) { x.device.k *= f; }), 1e-5);
  EXPECT_NEAR(sens.wrt_lambda,
              fd([](core::SsnScenario& x, double f) { x.device.lambda *= f; }),
              1e-5);
  EXPECT_NEAR(sens.wrt_vx,
              fd([](core::SsnScenario& x, double f) { x.device.vx *= f; }), 1e-4);
}

TEST(LOnlySensitivity, BetaEquivalenceOfElasticities) {
  // Eqn 9: N, L, S, K are interchangeable, so their elasticities coincide.
  const auto sens = l_only_sensitivities(base());
  EXPECT_DOUBLE_EQ(sens.wrt_drivers, sens.wrt_inductance);
  EXPECT_DOUBLE_EQ(sens.wrt_drivers, sens.wrt_slope);
  EXPECT_DOUBLE_EQ(sens.wrt_drivers, sens.wrt_k);
}

TEST(LOnlySensitivity, SignsAndRanges) {
  const auto sens = l_only_sensitivities(base());
  EXPECT_GT(sens.wrt_inductance, 0.0);  // more L, more noise
  EXPECT_LT(sens.wrt_inductance, 1.0);  // sub-linear (saturation)
  EXPECT_LT(sens.wrt_lambda, 0.0);      // stronger feedback, less noise
  EXPECT_LT(sens.wrt_vx, 0.0);          // later turn-on, less noise
  EXPECT_DOUBLE_EQ(sens.wrt_capacitance, 0.0);
}

TEST(LOnlySensitivity, SaturationLimits) {
  // Tiny beta: V ~ A, elasticity -> 1. Huge beta: V saturates, -> 0.
  auto weak = base();
  weak.inductance = 1e-12;
  EXPECT_NEAR(l_only_sensitivities(weak).wrt_inductance, 1.0, 0.05);
  auto strong = base();
  strong.inductance = 1e-6;
  EXPECT_NEAR(l_only_sensitivities(strong).wrt_inductance, 0.0, 0.05);
}

TEST(LcSensitivity, OverdampedNearLOnly) {
  // Far into the over-damped region the capacitance barely matters and the
  // other elasticities approach the L-only values.
  auto s = base();
  s.capacitance = s.critical_capacitance() * 0.02;
  const auto lc = lc_sensitivities(s);
  const auto lo = l_only_sensitivities(s);
  EXPECT_NEAR(lc.wrt_inductance, lo.wrt_inductance, 0.05);
  EXPECT_NEAR(lc.wrt_slope, lo.wrt_slope, 0.05);
  EXPECT_LT(std::fabs(lc.wrt_capacitance), 0.05);
}

TEST(LcSensitivity, CapacitanceMattersUnderdamped) {
  auto s = base();
  s.capacitance = s.critical_capacitance() * 6.0;
  const auto lc = lc_sensitivities(s);
  // In the under-damped boundary regime, more C strongly reduces the
  // within-ramp maximum.
  EXPECT_LT(lc.wrt_capacitance, -0.2);
}

TEST(LcSensitivity, Validation) {
  EXPECT_THROW(lc_sensitivities(base()), std::invalid_argument);
}

}  // namespace
