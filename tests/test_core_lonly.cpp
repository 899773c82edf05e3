// Section 3 formulas (L-only model): exact-solution checks against the ODE,
// the beta figure, and the design-implication properties.
#include "core/l_only_model.hpp"
#include "reference/ode.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using ssnkit::core::LOnlyModel;
using ssnkit::core::SsnScenario;
using ssnkit::numeric::rk45;
using ssnkit::numeric::Vector;

SsnScenario typical() {
  SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.capacitance = 0.0;
  s.vdd = 1.8;
  s.slope = 1.8 / 0.1e-9;  // t_r = 0.1 ns
  s.device = {.k = 6e-3, .lambda = 1.25, .vx = 0.61};
  return s;
}

TEST(Scenario, DerivedQuantities) {
  const SsnScenario s = typical();
  EXPECT_NEAR(s.t_on(), 0.61 / 1.8e10, 1e-18);
  EXPECT_NEAR(s.t_ramp_end(), 0.1e-9, 1e-18);
  EXPECT_NEAR(s.beta(), 8.0 * 5e-9 * 1.8e10, 1e-6);
  EXPECT_NEAR(s.v_inf(), s.device.k * s.beta(), 1e-12);
  EXPECT_NEAR(s.critical_capacitance(),
              std::pow(8.0 * 6e-3 * 1.25, 2.0) * 5e-9 / 4.0, 1e-18);
}

TEST(Scenario, Validation) {
  SsnScenario s = typical();
  s.n_drivers = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = typical();
  s.inductance = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = typical();
  s.device.vx = 2.0;  // above vdd
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = typical();
  s.capacitance = -1e-12;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(LOnly, ZeroBeforeTurnOn) {
  const LOnlyModel m(typical());
  EXPECT_DOUBLE_EQ(m.vn(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.vn(m.scenario().t_on() * 0.999), 0.0);
  EXPECT_DOUBLE_EQ(m.i_driver(0.0), 0.0);
}

TEST(LOnly, SatisfiesTheOde) {
  // Plug Eqn 6 back into V_n = N*L*K*(S - lambda*dV_n/dt): the residual
  // must vanish over the whole active ramp.
  const SsnScenario s = typical();
  const LOnlyModel m(s);
  const double nlk = double(s.n_drivers) * s.inductance * s.device.k;
  for (double frac : {0.05, 0.2, 0.5, 0.8, 0.99}) {
    const double t = s.t_on() + frac * (s.t_ramp_end() - s.t_on());
    const double residual = m.vn(t) - nlk * (s.slope - s.device.lambda * m.vn_dot(t));
    EXPECT_NEAR(residual, 0.0, 1e-9 * s.v_inf()) << "frac=" << frac;
  }
}

TEST(LOnly, MatchesRk45Reference) {
  // Independent numerical integration of the exact nonlinear start
  // (current clamped at 0 before V_in = V_x) must land on Eqn 6.
  const SsnScenario s = typical();
  const LOnlyModel m(s);
  // State: y = inductor current (total); V_n = L * dy/dt inverted form:
  // Work with V_n directly: dV/dt = (NLKS - V)/(NLK*lambda) after turn-on.
  const double tau = m.tau();
  const double v_inf = s.v_inf();
  const auto rhs = [&](double, const Vector& y) {
    return Vector{(v_inf - y[0]) / tau};
  };
  const auto sol = rk45(rhs, s.t_on(), s.t_ramp_end(), Vector{0.0});
  // Compare at the integrator's own points (sample() would add linear
  // interpolation error between the large steps RK45 takes here).
  for (std::size_t i = 0; i < sol.t.size(); ++i)
    EXPECT_NEAR(m.vn(sol.t[i]), sol.y[i][0], 1e-7 * v_inf) << "i=" << i;
}

TEST(LOnly, VmaxIsValueAtRampEnd) {
  const LOnlyModel m(typical());
  EXPECT_NEAR(m.v_max(), m.vn(m.scenario().t_ramp_end()), 1e-15);
  // And the waveform agrees.
  const auto w = m.vn_waveform();
  EXPECT_NEAR(w.maximum().value, m.v_max(), 1e-6 * m.v_max());
}

TEST(LOnly, PaperMagnitudeBallpark) {
  // The paper's Fig. 2 setup peaks near 0.8-1.0 V at vdd = 1.8 V.
  const LOnlyModel m(typical());
  EXPECT_GT(m.v_max(), 0.4);
  EXPECT_LT(m.v_max(), 1.3);
}

TEST(LOnly, CurrentFormulaConsistentWithInductor) {
  // V_n = L * d(N i)/dt: differentiate the current waveform numerically.
  const SsnScenario s = typical();
  const LOnlyModel m(s);
  const double t = s.t_on() + 0.6 * (s.t_ramp_end() - s.t_on());
  const double h = 1e-15;
  const double didt = (m.i_inductor(t + h) - m.i_inductor(t - h)) / (2.0 * h);
  EXPECT_NEAR(s.inductance * didt, m.vn(t), 2e-3 * m.vn(t));
}

TEST(LOnly, BetaEquivalenceExact) {
  // Same beta = N*L*S -> identical V_max (Eqn 10), exactly.
  const SsnScenario a = typical();
  SsnScenario b = a;
  b.n_drivers = 4;
  b.inductance = 2.0 * a.inductance;  // N*L unchanged
  SsnScenario c = a;
  c.slope = 2.0 * a.slope;
  c.inductance = 0.5 * a.inductance;  // L*S unchanged
  const double va = LOnlyModel(a).v_max();
  EXPECT_NEAR(LOnlyModel(b).v_max(), va, 1e-12);
  EXPECT_NEAR(LOnlyModel(c).v_max(), va, 1e-12);
}

TEST(LOnly, MonotoneInDriversInductanceSlope) {
  const SsnScenario s = typical();
  double prev = 0.0;
  for (int n = 1; n <= 32; n *= 2) {
    const double v = LOnlyModel(s.with_drivers(n)).v_max();
    EXPECT_GT(v, prev);
    prev = v;
  }
  prev = 0.0;
  for (double l = 1e-9; l <= 16e-9; l *= 2.0) {
    SsnScenario with_l = s;
    with_l.inductance = l;
    const double v = LOnlyModel(with_l).v_max();
    EXPECT_GT(v, prev);
    prev = v;
  }
  prev = 0.0;
  for (double slope = 2e9; slope <= 6.4e10; slope *= 2.0) {
    const double v = LOnlyModel(s.with_slope(slope)).v_max();
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(LOnly, SaturatesBelowVInf) {
  // V_max < V_inf always; the saturation fraction grows as the ramp slows.
  const SsnScenario s = typical();
  EXPECT_LT(LOnlyModel(s).v_max(), s.v_inf());
  const SsnScenario fast = s.with_slope(s.slope * 100.0);
  const SsnScenario slow = s.with_slope(s.slope / 100.0);
  EXPECT_GT(LOnlyModel(fast).v_max() / fast.v_inf(), 0.0);
  EXPECT_LT(LOnlyModel(fast).v_max() / fast.v_inf(),
            LOnlyModel(s).v_max() / s.v_inf());
  EXPECT_GT(LOnlyModel(slow).v_max() / slow.v_inf(), 0.999);
}

TEST(LOnly, SlowRampLimit) {
  // For very slow inputs the exponential saturates: V_max -> V_inf * 1,
  // i.e. the noise equals N*L*K*S, which itself goes to 0 as S -> 0.
  const SsnScenario s = typical().with_slope(1e8);
  const LOnlyModel m(s);
  EXPECT_NEAR(m.v_max(), s.v_inf(), 1e-3 * s.v_inf());
}

TEST(LOnly, HoldsValueAfterRamp) {
  const LOnlyModel m(typical());
  const double at_end = m.vn(m.scenario().t_ramp_end());
  EXPECT_DOUBLE_EQ(m.vn(m.scenario().t_ramp_end() * 2.0), at_end);
  EXPECT_DOUBLE_EQ(m.vn_dot(m.scenario().t_ramp_end() * 2.0), 0.0);
}

}  // namespace
