// Section 4 / Table 1 (LC model): damping classification, per-region exact
// solutions against RK45, the four max-SSN formulas, and limits.
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "reference/ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using ssnkit::core::DampingRegion;
using ssnkit::core::LcModel;
using ssnkit::core::LOnlyModel;
using ssnkit::core::MaxSsnCase;
using ssnkit::core::SsnScenario;
using ssnkit::numeric::rk45;
using ssnkit::numeric::Vector;

SsnScenario base_scenario() {
  SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.capacitance = 1e-12;  // PGA pad capacitance
  s.vdd = 1.8;
  s.slope = 1.8 / 0.1e-9;
  s.device = {.k = 6e-3, .lambda = 1.25, .vx = 0.61};
  return s;
}

TEST(LcModel, RequiresCapacitance) {
  EXPECT_THROW(LcModel(base_scenario().with_capacitance(0.0)),
               std::invalid_argument);
}

TEST(LcModel, RegionClassificationAgainstCcrit) {
  const SsnScenario s = base_scenario();
  const double c_crit = s.critical_capacitance();
  EXPECT_EQ(LcModel(s.with_capacitance(c_crit * 0.5)).region(),
            DampingRegion::kOverDamped);
  EXPECT_EQ(LcModel(s.with_capacitance(c_crit * 2.0)).region(),
            DampingRegion::kUnderDamped);
  EXPECT_EQ(LcModel(s.with_capacitance(c_crit)).region(),
            DampingRegion::kCriticallyDamped);
}

TEST(LcModel, ZetaFormula) {
  const SsnScenario s = base_scenario();
  const LcModel m(s);
  const double expected_zeta = 0.5 * 8.0 * 6e-3 * 1.25 *
                               std::sqrt(5e-9 / 1e-12);
  EXPECT_NEAR(m.zeta(), expected_zeta, 1e-9 * expected_zeta);
  EXPECT_NEAR(m.omega0(), 1.0 / std::sqrt(5e-9 * 1e-12), 1.0);
}

TEST(LcModel, CcritIsQuadraticInN) {
  const SsnScenario s = base_scenario();
  const double c1 = s.with_drivers(4).critical_capacitance();
  const double c2 = s.with_drivers(8).critical_capacitance();
  EXPECT_NEAR(c2 / c1, 4.0, 1e-9);
}

TEST(LcModel, InitialConditionsHold) {
  for (double c_mult : {0.3, 1.0, 3.0}) {
    const SsnScenario s = base_scenario().with_capacitance(
        base_scenario().critical_capacitance() * c_mult);
    const LcModel m(s);
    EXPECT_NEAR(m.vn(s.t_on()), 0.0, 1e-12);
    // The derivative starts at 0 and ramps at a rate of order V_inf*omega0^2;
    // scale the tolerance accordingly.
    const double dt = 1e-6 / m.omega0();
    EXPECT_NEAR(m.vn_dot(s.t_on() + dt), 0.0,
                1e-4 * s.v_inf() * m.omega0());
  }
}

class LcOdeResidual : public ::testing::TestWithParam<double> {};

TEST_P(LcOdeResidual, SolutionSatisfiesEqn13) {
  // L*C*V'' + N*L*K*lambda*V' + V = N*L*K*S across all damping regions,
  // with V'' from finite differences of the analytic solution.
  const SsnScenario base = base_scenario();
  const SsnScenario s =
      base.with_capacitance(base.critical_capacitance() * GetParam());
  const LcModel m(s);
  const double nlk = double(s.n_drivers) * s.inductance * s.device.k;
  const double lc = s.inductance * s.capacitance;
  // h balances truncation against double-rounding in the second difference.
  const double h = (s.t_ramp_end() - s.t_on()) * 1e-3;
  for (double frac : {0.1, 0.4, 0.7, 0.95}) {
    const double t = s.t_on() + frac * (s.t_ramp_end() - s.t_on());
    const double vpp = (m.vn(t + h) - 2.0 * m.vn(t) + m.vn(t - h)) / (h * h);
    const double residual =
        lc * vpp + nlk * s.device.lambda * m.vn_dot(t) + m.vn(t) - nlk * s.slope;
    EXPECT_NEAR(residual / (nlk * s.slope), 0.0, 1e-4)
        << "c_mult=" << GetParam() << " frac=" << frac;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegions, LcOdeResidual,
                         ::testing::Values(0.2, 0.5, 0.9999999, 2.0, 5.0, 20.0));

class LcVsRk45 : public ::testing::TestWithParam<double> {};

TEST_P(LcVsRk45, WaveformMatchesReference) {
  const SsnScenario base = base_scenario();
  const SsnScenario s =
      base.with_capacitance(base.critical_capacitance() * GetParam());
  const LcModel m(s);
  const double nlk = double(s.n_drivers) * s.inductance * s.device.k;
  const double lc = s.inductance * s.capacitance;
  // y = (V, V'); V'' = (NLKS - V - NLK*lambda*V')/(LC).
  const auto rhs = [&](double, const Vector& y) {
    return Vector{y[1],
                  (nlk * s.slope - y[0] - nlk * s.device.lambda * y[1]) / lc};
  };
  const auto sol = rk45(rhs, s.t_on(), s.t_ramp_end(), Vector{0.0, 0.0});
  // Compare at the integrator's own points (interpolating between its
  // large steps would dominate the error budget).
  for (std::size_t i = 0; i < sol.t.size(); ++i)
    EXPECT_NEAR(m.vn(sol.t[i]), sol.y[i][0], 1e-6 * s.v_inf())
        << "c_mult=" << GetParam() << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(AllRegions, LcVsRk45,
                         ::testing::Values(0.25, 1.0, 4.0, 16.0));

TEST(LcModel, ContinuousAcrossCriticalDamping) {
  // The three analytic branches must agree to high accuracy near zeta = 1.
  const SsnScenario base = base_scenario();
  const double c_crit = base.critical_capacitance();
  const LcModel slightly_over(base.with_capacitance(c_crit * (1.0 - 1e-4)));
  const LcModel critical(base.with_capacitance(c_crit));
  const LcModel slightly_under(base.with_capacitance(c_crit * (1.0 + 1e-4)));
  const double t = base.t_on() + 0.5 * base.active_ramp();
  EXPECT_NEAR(slightly_over.vn(t), critical.vn(t), 1e-3 * critical.vn(t));
  EXPECT_NEAR(slightly_under.vn(t), critical.vn(t), 1e-3 * critical.vn(t));
  EXPECT_NEAR(slightly_over.v_max(), slightly_under.v_max(),
              1e-3 * critical.v_max());
}

TEST(LcModel, SmallCapacitanceApproachesLOnly) {
  const SsnScenario base = base_scenario();
  const LOnlyModel l_only(base.with_capacitance(0.0));
  const LcModel tiny_c(base.with_capacitance(1e-18));
  EXPECT_NEAR(tiny_c.v_max(), l_only.v_max(), 1e-3 * l_only.v_max());
  const double t = base.t_on() + 0.7 * base.active_ramp();
  EXPECT_NEAR(tiny_c.vn(t), l_only.vn(t), 1e-3 * l_only.vn(t));
}

TEST(LcModel, FourCasesAreReachable) {
  const SsnScenario base = base_scenario();
  const double c_crit = base.critical_capacitance();
  EXPECT_EQ(LcModel(base.with_capacitance(c_crit * 0.3)).max_case(),
            MaxSsnCase::kOverDamped);
  EXPECT_EQ(LcModel(base.with_capacitance(c_crit)).max_case(),
            MaxSsnCase::kCriticallyDamped);
  // Strongly under-damped with a fast ramp: the first peak fits inside.
  const LcModel deep_under(base.with_capacitance(c_crit * 50.0));
  ASSERT_EQ(deep_under.region(), DampingRegion::kUnderDamped);
  // Whether 3a or 3b applies depends on timing; force each with the slope.
  const SsnScenario slow = base.with_capacitance(c_crit * 9.0).with_slope(
      base.slope / 40.0);  // long ramp: peak inside -> 3a
  EXPECT_EQ(LcModel(slow).max_case(), MaxSsnCase::kUnderDampedFirstPeak);
  const SsnScenario fast = base.with_capacitance(c_crit * 9.0).with_slope(
      base.slope * 20.0);  // short ramp: boundary -> 3b
  EXPECT_EQ(LcModel(fast).max_case(), MaxSsnCase::kUnderDampedBoundary);
}

TEST(LcModel, Case3aPeakFormula) {
  // In case 3a, v_max equals the analytic first-peak value AND the peak of
  // the sampled waveform.
  const SsnScenario base = base_scenario();
  const SsnScenario s = base.with_capacitance(base.critical_capacitance() * 9.0)
                            .with_slope(base.slope / 40.0);
  const LcModel m(s);
  ASSERT_EQ(m.max_case(), MaxSsnCase::kUnderDampedFirstPeak);
  const double expected =
      s.v_inf() * (1.0 + std::exp(-m.sigma() * M_PI / m.omega_d()));
  EXPECT_NEAR(m.v_max(), expected, 1e-12);
  EXPECT_NEAR(m.t_first_peak(), s.t_on() + M_PI / m.omega_d(), 1e-18);
  const auto w = m.vn_waveform(4096);
  EXPECT_NEAR(w.maximum().value, m.v_max(), 2e-3 * m.v_max());
  EXPECT_NEAR(w.maximum().t, m.t_first_peak(), 0.02 * m.t_first_peak());
}

TEST(LcModel, BoundaryCasesMatchWaveformMax) {
  const SsnScenario base = base_scenario();
  for (double c_mult : {0.3, 1.0, 3.0}) {
    const LcModel m(base.with_capacitance(base.critical_capacitance() * c_mult));
    const auto w = m.vn_waveform(4096);
    EXPECT_NEAR(w.maximum().value, m.v_max(), 3e-3 * m.v_max())
        << "c_mult=" << c_mult;
  }
}

TEST(LcModel, TFirstPeakThrowsOutsideUnderdamped) {
  const SsnScenario base = base_scenario();
  const LcModel over(base.with_capacitance(base.critical_capacitance() * 0.3));
  EXPECT_THROW(over.t_first_peak(), std::logic_error);
}

TEST(LcModel, OverdampedMonotoneDuringRamp) {
  // The paper: the derivative is positive definite in cases 1 and 2.
  const SsnScenario base = base_scenario();
  const LcModel m(base.with_capacitance(base.critical_capacitance() * 0.4));
  double prev = -1.0;
  for (double frac = 0.01; frac <= 1.0; frac += 0.01) {
    const double t = base.t_on() + frac * base.active_ramp();
    const double v = m.vn(t);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LcModel, UnderdampedOvershootsVInf) {
  // Case 3a peaks above the asymptote (up to 2x), unlike the L-only model.
  const SsnScenario base = base_scenario();
  const SsnScenario s = base.with_capacitance(base.critical_capacitance() * 9.0)
                            .with_slope(base.slope / 40.0);
  const LcModel m(s);
  EXPECT_GT(m.v_max(), s.v_inf());
  EXPECT_LT(m.v_max(), 2.0 * s.v_inf());
}

TEST(LcModel, InductorCurrentSplitsFromDriverCurrent) {
  // i_L = N*i_driver - C*dV/dt: at the first peak dV/dt = 0, so they match.
  const SsnScenario base = base_scenario();
  const SsnScenario s = base.with_capacitance(base.critical_capacitance() * 9.0)
                            .with_slope(base.slope / 40.0);
  const LcModel m(s);
  const double tp = m.t_first_peak();
  EXPECT_NEAR(m.i_inductor(tp), double(s.n_drivers) * m.i_driver(tp),
              1e-9);
}

TEST(LcModel, StringsForEnums) {
  using ssnkit::core::to_string;
  EXPECT_STREQ(to_string(DampingRegion::kOverDamped), "over-damped");
  EXPECT_NE(std::string(to_string(MaxSsnCase::kUnderDampedFirstPeak)).find("3a"),
            std::string::npos);
}

}  // namespace
