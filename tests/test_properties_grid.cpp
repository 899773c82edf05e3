// Large parameterized property sweeps:
//  * the LC closed form against RK45 over a (N, C/C_crit, slope) grid,
//  * Table 1 case selection consistency over the same grid,
//  * the closed-form self-check's exact ramp maximum against dense sampling,
//  * AC steady state against transient sine response (cross-engine check).
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "reference/ode.hpp"
#include "sim/ac.hpp"
#include "sim/engine.hpp"
#include "verify/physics.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

namespace {

using ssnkit::core::LcModel;
using ssnkit::core::LOnlyModel;
using ssnkit::core::MaxSsnCase;
using ssnkit::core::SsnScenario;
using ssnkit::numeric::rk45;
using ssnkit::numeric::Vector;

SsnScenario scenario_for(int n, double c_mult, double slope_mult) {
  SsnScenario s;
  s.n_drivers = n;
  s.inductance = 5e-9;
  s.vdd = 1.8;
  s.slope = 1.8e10 * slope_mult;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  s.capacitance = s.critical_capacitance() * c_mult;
  return s;
}

using GridParam = std::tuple<int, double, double>;  // N, C/C_crit, slope mult

class LcGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(LcGrid, WaveformMatchesRk45EverywhereOnTheGrid) {
  const auto [n, c_mult, slope_mult] = GetParam();
  const SsnScenario s = scenario_for(n, c_mult, slope_mult);
  const LcModel m(s);

  const double nlk = double(s.n_drivers) * s.inductance * s.device.k;
  const double lc = s.inductance * s.capacitance;
  const auto rhs = [&](double, const Vector& y) {
    return Vector{y[1],
                  (nlk * s.slope - y[0] - nlk * s.device.lambda * y[1]) / lc};
  };
  const auto sol = rk45(rhs, s.t_on(), s.t_ramp_end(), Vector{0.0, 0.0});
  double ref_max = 0.0;
  for (std::size_t i = 0; i < sol.t.size(); ++i) {
    EXPECT_NEAR(m.vn(sol.t[i]), sol.y[i][0], 2e-6 * s.v_inf())
        << "i=" << i << " N=" << n << " c_mult=" << c_mult;
    ref_max = std::max(ref_max, sol.y[i][0]);
  }
  // Table 1's maximum dominates the trajectory's sampled maximum (3a's
  // analytic peak may exceed the last sample slightly).
  EXPECT_GE(m.v_max() * (1.0 + 1e-6), ref_max);
}

TEST_P(LcGrid, CaseSelectionConsistent) {
  const auto [n, c_mult, slope_mult] = GetParam();
  const SsnScenario s = scenario_for(n, c_mult, slope_mult);
  const LcModel m(s);
  switch (m.max_case()) {
    case MaxSsnCase::kOverDamped:
      EXPECT_GT(m.zeta(), 1.0);
      break;
    case MaxSsnCase::kCriticallyDamped:
      EXPECT_NEAR(m.zeta(), 1.0, 1e-5);
      break;
    case MaxSsnCase::kUnderDampedFirstPeak:
      EXPECT_LT(m.zeta(), 1.0);
      EXPECT_LE(M_PI / m.omega_d(), s.active_ramp());
      // The analytic peak value must match vn at the peak time.
      EXPECT_NEAR(m.v_max(), m.vn(m.t_first_peak()), 1e-9 * s.v_inf());
      break;
    case MaxSsnCase::kUnderDampedBoundary:
      EXPECT_LT(m.zeta(), 1.0);
      EXPECT_GT(M_PI / m.omega_d(), s.active_ramp());
      EXPECT_NEAR(m.v_max(), m.vn(s.t_ramp_end()), 1e-12);
      break;
  }
}

// The exact ramp maximum behind the closed-form self-check against a dense
// sampling of the same waveform: never below it by more than rounding,
// above it by no more than a 1e5-point grid can miss near an interior peak.
constexpr int kDenseSamples = 100000;

double dense_ramp_maximum(const std::function<double(double)>& vn,
                          double t_r) {
  double best = vn(0.0);
  for (int k = 1; k <= kDenseSamples; ++k)
    best = std::max(best, vn(t_r * double(k) / kDenseSamples));
  return best;
}

TEST_P(LcGrid, ExactRampMaximumBoundsDenseSampling) {
  const auto [n, c_mult, slope_mult] = GetParam();
  const SsnScenario s = scenario_for(n, c_mult, slope_mult);
  const LcModel m(s);
  const double exact = ssnkit::verify::closed_form_ramp_maximum(s);
  const double sampled =
      dense_ramp_maximum([&](double t) { return m.vn(t); }, s.t_ramp_end());
  EXPECT_GE(exact, sampled * (1.0 - 1e-12));
  EXPECT_LE(exact, sampled * (1.0 + 1e-6));
  // And the Table 1 formula is that maximum: the self-check passes.
  ssnkit::verify::TrustReport trust;
  trust.verdict = ssnkit::verify::Verdict::kVerified;
  EXPECT_TRUE(ssnkit::verify::check_closed_form_peak(s, m.v_max(), trust))
      << trust.summary();
  EXPECT_NEAR(m.v_max(), exact, 1e-12 * exact);
}

TEST(LOnlyRamp, ExactRampMaximumBoundsDenseSampling) {
  for (const int n : {1, 2, 4, 8, 16, 64}) {
    for (const double slope_mult : {0.25, 1.0, 4.0}) {
      SsnScenario s = scenario_for(n, 1.0, slope_mult);
      s.capacitance = 0.0;
      const LOnlyModel m(s);
      const double exact = ssnkit::verify::closed_form_ramp_maximum(s);
      const double sampled = dense_ramp_maximum(
          [&](double t) { return m.vn(t); }, s.t_ramp_end());
      EXPECT_GE(exact, sampled * (1.0 - 1e-12)) << "N=" << n;
      EXPECT_LE(exact, sampled * (1.0 + 1e-6)) << "N=" << n;
      EXPECT_NEAR(m.v_max(), exact, 1e-12 * exact) << "N=" << n;
    }
  }
}

TEST_P(LcGrid, MaxIsNonNegativeAndBounded) {
  const auto [n, c_mult, slope_mult] = GetParam();
  const LcModel m(scenario_for(n, c_mult, slope_mult));
  EXPECT_GE(m.v_max(), 0.0);
  // Never more than twice the asymptote (under-damped first peak bound).
  EXPECT_LE(m.v_max(), 2.0 * m.scenario().v_inf() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LcGrid,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(0.1, 0.5, 1.0, 3.0, 12.0),
                       ::testing::Values(0.25, 1.0, 4.0)));

// --- cross-engine: AC steady state vs transient sine ------------------------

class AcVsTransient : public ::testing::TestWithParam<double> {};

TEST_P(AcVsTransient, RcSineSteadyStateAmplitudeAgrees) {
  const double freq = GetParam();
  using namespace ssnkit::circuit;
  const double r = 1e3, c = 1e-12;

  // AC prediction.
  Circuit ac_ckt;
  {
    const NodeId in = ac_ckt.node("in");
    const NodeId out = ac_ckt.node("out");
    auto& v = ac_ckt.add_vsource("V1", in, kGround, ssnkit::waveform::Dc{0.0});
    v.set_ac(1.0);
    ac_ckt.add_resistor("R1", in, out, r);
    ac_ckt.add_capacitor("C1", out, kGround, c);
  }
  ssnkit::sim::AcOptions aopts;
  aopts.f_start = freq * 0.99;
  aopts.f_stop = freq * 1.01;
  aopts.points_per_decade = 300;
  const auto ac = ssnkit::sim::run_ac(ac_ckt, aopts);
  const double mag_ac = ac.magnitude("out")[ac.point_count() / 2];

  // Transient: drive with a sine, measure the late-time amplitude.
  Circuit tr_ckt;
  {
    const NodeId in = tr_ckt.node("in");
    const NodeId out = tr_ckt.node("out");
    tr_ckt.add_vsource("V1", in, kGround,
                       ssnkit::waveform::Sine{0.0, 1.0, freq, 0.0});
    tr_ckt.add_resistor("R1", in, out, r);
    tr_ckt.add_capacitor("C1", out, kGround, c);
  }
  ssnkit::sim::TransientOptions topts;
  topts.t_stop = 12.0 / freq;  // several periods to settle
  topts.dt_max = 1.0 / (freq * 200.0);
  topts.lte_reltol = 1e-5;
  const auto tr =
      testutil::full_device(ssnkit::sim::run_transient_ex(tr_ckt, topts));
  const auto wave = tr.waveform("out");
  // Amplitude over the last two periods.
  const auto tail = wave.windowed(10.0 / freq, 12.0 / freq);
  const double mag_tr =
      0.5 * (tail.maximum().value - tail.minimum().value);

  EXPECT_NEAR(mag_tr, mag_ac, 0.03 * mag_ac) << "f=" << freq;
}

INSTANTIATE_TEST_SUITE_P(Frequencies, AcVsTransient,
                         ::testing::Values(5e7, 1.59e8, 1e9));

}  // namespace
