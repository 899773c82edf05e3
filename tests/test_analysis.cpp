// End-to-end: calibration, model-vs-simulator agreement (the paper's
// headline claims), sweeps and the design helpers.
#include "analysis/calibrate.hpp"
#include "analysis/design.hpp"
#include "analysis/measure.hpp"
#include "analysis/sweeps.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "numeric/stats.hpp"
#include "waveform/metrics.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using namespace ssnkit;
using analysis::calibrate;
using analysis::Calibration;
using analysis::make_scenario;
using process::GoldenKind;

const Calibration& cal180() {
  static const Calibration cal = calibrate(process::tech_180nm());
  return cal;
}

TEST(Calibrate, ProducesSaneDeviceAbstractions) {
  const Calibration& cal = cal180();
  EXPECT_GT(cal.asdm.params.k, 1e-3);
  EXPECT_GT(cal.asdm.params.lambda, 1.0);
  EXPECT_GT(cal.asdm.params.vx, cal.tech.alpha_power.vt0);
  EXPECT_TRUE(cal.alpha.converged);
  EXPECT_GT(cal.baseline_b(), 0.0);
  EXPECT_THROW(calibrate(cal.tech, GoldenKind::kAlphaPower, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Calibrate, ScenarioFactory) {
  const auto scenario =
      make_scenario(cal180(), process::package_pga(), 8, 0.1e-9, true);
  EXPECT_EQ(scenario.n_drivers, 8);
  EXPECT_DOUBLE_EQ(scenario.inductance, 5e-9);
  EXPECT_DOUBLE_EQ(scenario.capacitance, 1e-12);
  EXPECT_NEAR(scenario.slope, 1.8e10, 1e-3);
  const auto no_c =
      make_scenario(cal180(), process::package_pga(), 8, 0.1e-9, false);
  EXPECT_DOUBLE_EQ(no_c.capacitance, 0.0);
}

// --- the paper's central accuracy claims -------------------------------------

TEST(EndToEnd, FormulaErrorIsolatedWithAsdmDevice) {
  // Same ASDM device in both the formula and the simulator, L-only bench:
  // the remaining discrepancy is formula error alone and must be tiny.
  const Calibration& cal = cal180();
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = 8;
  spec.input_rise_time = 0.1e-9;
  spec.include_package_c = false;
  spec.include_pullup = false;
  spec.pulldown_override = std::make_shared<devices::AsdmModel>(cal.asdm.params);
  const auto m = testutil::full_device(analysis::measure_ssn(spec));

  const auto scenario =
      make_scenario(cal, process::package_pga(), 8, 0.1e-9, false);
  const core::LOnlyModel model(scenario);
  EXPECT_NEAR(model.v_max(), m.v_max, 0.02 * m.v_max);

  // Whole waveform, not just the peak.
  const auto err =
      waveform::compare(model.vn_waveform(), m.vssi, scenario.t_on() * 1.001,
                        scenario.t_ramp_end());
  EXPECT_LT(err.norm_max_abs, 0.03);
}

TEST(EndToEnd, LOnlyModelVsGoldenSimulator) {
  // Full path: golden device in the simulator, fitted ASDM in the formula.
  // The paper's Fig. 2/3 agreement: within several percent.
  const Calibration& cal = cal180();
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = 8;
  spec.input_rise_time = 0.1e-9;
  spec.include_package_c = false;
  const auto m = testutil::full_device(analysis::measure_ssn(spec));

  const auto scenario =
      make_scenario(cal, process::package_pga(), 8, 0.1e-9, false);
  const double v_model = core::LOnlyModel(scenario).v_max();
  EXPECT_NEAR(v_model, m.v_max, 0.10 * m.v_max);
}

TEST(EndToEnd, LcModelVsGoldenSimulatorAcrossRegions) {
  // The paper's Fig. 4 claim: the LC model tracks the simulator in both
  // damping regions (< ~3% there; we allow extra for our golden devices).
  const Calibration& cal = cal180();
  const auto base = make_scenario(cal, process::package_pga(), 8, 0.1e-9, false);
  const double c_crit = base.critical_capacitance();
  for (double c_mult : {0.25, 4.0}) {
    const double c = c_crit * c_mult;
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = 8;
    spec.input_rise_time = 0.1e-9;
    spec.package.capacitance = c;
    const auto m = testutil::full_device(analysis::measure_ssn(spec));
    const double v_model = core::LcModel(base.with_capacitance(c)).v_max();
    EXPECT_NEAR(v_model, m.v_max, 0.10 * m.v_max) << "c_mult=" << c_mult;
  }
}

TEST(EndToEnd, LOnlyModelFailsWhenStronglyUnderdamped) {
  // The motivation for Section 4: with C far above C_crit the L-only
  // formula misses the resonant overshoot that the LC formula captures.
  const Calibration& cal = cal180();
  const auto base = make_scenario(cal, process::package_pga(), 2, 0.5e-9, false);
  const double c = base.critical_capacitance() * 60.0;

  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = 2;
  spec.input_rise_time = 0.5e-9;
  spec.package.capacitance = c;
  const auto m = testutil::full_device(analysis::measure_ssn(spec));

  const double err_l_only =
      std::fabs(core::LOnlyModel(base).v_max() - m.v_max) / m.v_max;
  const double err_lc =
      std::fabs(core::LcModel(base.with_capacitance(c)).v_max() - m.v_max) /
      m.v_max;
  EXPECT_LT(err_lc, err_l_only);
  EXPECT_GT(err_l_only, 0.10);
}

// --- sweeps -------------------------------------------------------------------

TEST(Sweeps, DriverSweepShapeMatchesFig3) {
  analysis::DriverSweepConfig config;
  config.driver_counts = {2, 4, 8, 12};
  const auto result = analysis::run_driver_sweep(config);
  ASSERT_EQ(result.rows.size(), 4u);
  // Monotone increase of the simulated noise with N.
  for (std::size_t i = 1; i < result.rows.size(); ++i)
    EXPECT_GT(result.rows[i].sim, result.rows[i - 1].sim);
  // The paper's model is the most accurate on average.
  double e_this = 0.0, e_vem = 0.0, e_song = 0.0, e_sp = 0.0;
  for (const auto& row : result.rows) {
    e_this += row.err_this;
    e_vem += row.err_vemuru;
    e_song += row.err_song;
    e_sp += row.err_senthinathan;
  }
  EXPECT_LT(e_this, e_vem);
  EXPECT_LT(e_this, e_song);
  EXPECT_LT(e_this, e_sp);
  EXPECT_LT(e_this / double(result.rows.size()), 0.08);
}

TEST(Sweeps, CapacitanceSweepShapeMatchesFig4) {
  analysis::CapacitanceSweepConfig config;
  const auto base = make_scenario(cal180(), config.package, config.n_drivers,
                                  config.input_rise_time, false);
  const double c_crit = base.critical_capacitance();
  config.capacitances = {c_crit * 0.2, c_crit * 0.7, c_crit * 2.0, c_crit * 8.0};
  const auto result = analysis::run_capacitance_sweep(config);
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_NEAR(result.critical_capacitance, c_crit, 1e-3 * c_crit);
  // Over-damped rows: both models acceptable. Under-damped rows: the LC
  // model must beat the L-only model.
  for (const auto& row : result.rows) {
    if (row.zeta < 0.8) {
      EXPECT_LE(row.err_lc, row.err_l_only + 0.02) << row.c;
    }
    EXPECT_LT(row.err_lc, 0.12) << row.c;
  }
}

TEST(Sweeps, SlopeSweepModelTracksSim) {
  // Max SSN vs input slope at fixed N and L: the L-only model against the
  // simulator, one direct measurement per rise time.
  std::vector<double> sims;
  for (double tr : {0.05e-9, 0.1e-9, 0.3e-9}) {
    circuit::SsnBenchSpec spec;
    spec.n_drivers = 8;
    spec.input_rise_time = tr;
    spec.include_package_c = false;
    analysis::MeasureOptions mopts;
    mopts.transient.dt_max = tr / 200.0;
    const auto m = testutil::full_device(analysis::measure_ssn(spec, mopts));
    const auto scenario = make_scenario(cal180(), spec.package, 8, tr, false);
    EXPECT_LT(numeric::relative_error(core::LOnlyModel(scenario).v_max(),
                                      m.v_max),
              0.12)
        << tr;
    sims.push_back(m.v_max);
  }
  // Faster edges, more noise.
  EXPECT_GT(sims[0], sims[1]);
  EXPECT_GT(sims[1], sims[2]);
}

TEST(Sweeps, RowsAreBitIdenticalToDirectMeasurements) {
  // The batch core measures exactly the bench a direct measure_ssn call
  // builds for the same point, and the rows evaluate the same closed form.
  analysis::DriverSweepConfig config;
  config.driver_counts = {2, 4};
  config.input_rise_time = 0.08e-9;
  config.include_package_c = true;
  const auto result = analysis::run_driver_sweep(config);
  ASSERT_TRUE(result.summary.all_full_fidelity());
  ASSERT_EQ(result.rows.size(), 2u);
  for (const auto& row : result.rows) {
    circuit::SsnBenchSpec spec;
    spec.n_drivers = row.n;
    spec.input_rise_time = config.input_rise_time;
    analysis::MeasureOptions mopts;
    mopts.transient.dt_max = config.input_rise_time / 200.0;
    const auto m = testutil::full_device(analysis::measure_ssn(spec, mopts));
    ASSERT_NE(m.trust.verdict, verify::Verdict::kDegraded);
    EXPECT_EQ(row.sim, m.v_max);
    const auto scenario = make_scenario(cal180(), config.package, row.n,
                                        config.input_rise_time, true);
    EXPECT_EQ(row.this_work, core::LcModel(scenario).v_max());
  }
}

TEST(Sweeps, BetaEquivalence) {
  const auto pts = analysis::beta_equivalence_points(
      cal180(), 8.0 * 5e-9 * 1.8e10, {1, 2, 4, 8, 16}, 0.1e-9);
  ASSERT_EQ(pts.size(), 5u);
  for (const auto& p : pts) {
    EXPECT_NEAR(p.beta, pts[0].beta, 1e-6 * pts[0].beta);
    EXPECT_NEAR(p.v_max, pts[0].v_max, 1e-9);
  }
}

// --- design helpers -----------------------------------------------------------

TEST(Design, PredictVmaxDispatches) {
  const auto with_c = make_scenario(cal180(), process::package_pga(), 8,
                                    0.1e-9, true);
  const auto no_c = make_scenario(cal180(), process::package_pga(), 8,
                                  0.1e-9, false);
  EXPECT_GT(analysis::predict_vmax(with_c), 0.0);
  EXPECT_GT(analysis::predict_vmax(no_c), 0.0);
}

TEST(Design, RequiredGroundPads) {
  const auto scenario = make_scenario(cal180(), process::package_pga(), 16,
                                      0.1e-9, true);
  const double unpadded = analysis::predict_vmax(scenario);
  const double budget = unpadded / 3.0;
  const int pads = analysis::required_ground_pads(scenario,
                                                  process::package_pga(), budget);
  EXPECT_GT(pads, 1);
  // Verify the answer actually meets the budget and is minimal.
  const auto meets = [&](int k) {
    const auto pkg = process::package_pga().with_ground_pads(k);
    auto s = scenario;
    s.inductance = pkg.inductance;
    s.capacitance = pkg.capacitance;
    return analysis::predict_vmax(s) <= budget;
  };
  EXPECT_TRUE(meets(pads));
  EXPECT_FALSE(meets(pads - 1));
  EXPECT_THROW(analysis::required_ground_pads(scenario, process::package_pga(),
                                              1e-6, 4),
               std::runtime_error);
}

TEST(Design, MaxSimultaneousDrivers) {
  const auto scenario = make_scenario(cal180(), process::package_pga(), 1,
                                      0.1e-9, false);
  const double v16 = analysis::predict_vmax(scenario.with_drivers(16));
  const int n = analysis::max_simultaneous_drivers(scenario, v16);
  EXPECT_GE(n, 16);
  EXPECT_LT(analysis::predict_vmax(scenario.with_drivers(n)), v16 * 1.0001);
  // Tiny budget -> zero drivers allowed.
  EXPECT_EQ(analysis::max_simultaneous_drivers(scenario, 1e-9), 0);
}

TEST(Design, MaxInputSlope) {
  const auto scenario = make_scenario(cal180(), process::package_pga(), 8,
                                      0.1e-9, false);
  const double budget = analysis::predict_vmax(scenario) * 0.5;
  const double s_max = analysis::max_input_slope(scenario, budget);
  EXPECT_LT(s_max, scenario.slope);
  EXPECT_NEAR(analysis::predict_vmax(scenario.with_slope(s_max)), budget,
              0.01 * budget);
  EXPECT_THROW(analysis::max_input_slope(scenario, 1e-9, 1e10, 1e9),
               std::invalid_argument);
}

}  // namespace
