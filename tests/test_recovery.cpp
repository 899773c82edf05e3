// The recovery ladder (sim/recovery.hpp) and its analysis-layer end
// (analysis::measure_ssn): healthy runs stay at full fidelity, hopeless
// circuits walk every rung and surface a typed error, and the analytic rung
// degrades to the paper's closed forms instead of losing the sample.
#include "analysis/batch.hpp"
#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "analysis/sweeps.hpp"
#include "circuit/circuit.hpp"
#include "circuit/testbench.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "sim/recovery.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using support::SolverErrorKind;
using ssnkit::waveform::Dc;

const analysis::Calibration& cal() {
  static const analysis::Calibration c =
      analysis::calibrate(process::tech_180nm());
  return c;
}

TEST(Fidelity, NamesAreStable) {
  EXPECT_STREQ(to_string(Fidelity::kFullDevice), "full-device");
  EXPECT_STREQ(to_string(Fidelity::kTightenedDamping), "tighten-damping");
  EXPECT_STREQ(to_string(Fidelity::kAlternateIntegrator),
               "alternate-integrator");
  EXPECT_STREQ(to_string(Fidelity::kGminRecovery), "gmin-recovery");
  EXPECT_STREQ(to_string(Fidelity::kReducedTimestep), "reduced-timestep");
  EXPECT_STREQ(to_string(Fidelity::kAnalytic), "analytic");
  EXPECT_STREQ(to_string(Fidelity::kFailed), "failed");
}

TEST(RecoveryLadder, HealthyRunStaysFullFidelity) {
  SsnBenchSpec spec;
  spec.n_drivers = 2;
  SsnBench bench = make_ssn_testbench(spec);
  TransientOptions opts;
  opts.t_stop = bench.t_ramp_end;
  opts.dt_max = spec.input_rise_time / 200.0;
  const RecoveryOutcome out = run_transient_resilient(bench.circuit, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.fidelity, Fidelity::kFullDevice);
  EXPECT_FALSE(out.degraded());
  ASSERT_EQ(out.attempts.size(), 1u);
  EXPECT_EQ(out.attempts[0].rung, "full-device");
  EXPECT_TRUE(out.attempts[0].succeeded);
  EXPECT_GT(out.result.point_count(), 10u);
}

TEST(RecoveryLadder, HopelessCircuitWalksEveryRung) {
  // A floating node fails identically on every rung; the outcome must list
  // all five attempts and re-wrap the error with the recovery trail.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_capacitor("C1", b, kGround, 1e-12);  // b floats at DC
  TransientOptions opts;
  opts.t_stop = 1e-9;
  const RecoveryOutcome out = run_transient_resilient(ckt, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.fidelity, Fidelity::kFailed);
  ASSERT_EQ(out.attempts.size(), 5u);
  EXPECT_EQ(out.attempts[0].rung, "full-device");
  EXPECT_EQ(out.attempts[1].rung, "tighten-damping");
  EXPECT_EQ(out.attempts[2].rung, "alternate-integrator");
  EXPECT_EQ(out.attempts[3].rung, "gmin-recovery");
  EXPECT_EQ(out.attempts[4].rung, "reduced-timestep");
  for (const auto& attempt : out.attempts) EXPECT_FALSE(attempt.succeeded);
  EXPECT_NE(std::string(out.error->what()).find("recovery ladder exhausted"),
            std::string::npos);
  EXPECT_EQ(out.error->diagnostics().recovery_trail.size(), 5u);
}

TEST(AnalyticMeasurement, MatchesClosedFormModels) {
  const auto& c = cal();
  const auto pkg = process::package_pga();
  const core::SsnScenario lc =
      analysis::make_scenario(c, pkg, 8, 0.1e-9, /*include_c=*/true);
  const auto m_lc = analysis::analytic_measurement(lc);
  EXPECT_DOUBLE_EQ(m_lc.v_max, core::LcModel(lc).v_max());
  EXPECT_NEAR(m_lc.vin.sample(lc.t_ramp_end()), lc.vdd, 1e-12);
  EXPECT_GT(m_lc.t_at_max, 0.0);

  const core::SsnScenario l_only =
      analysis::make_scenario(c, pkg, 8, 0.1e-9, /*include_c=*/false);
  const auto m_l = analysis::analytic_measurement(l_only);
  EXPECT_DOUBLE_EQ(m_l.v_max, core::LOnlyModel(l_only).v_max());
}

TEST(MeasureResilient, ForcedFailureDegradesToAnalytic) {
  // max_steps = 1 makes every simulation rung fail with a (retryable)
  // step-budget error; with a scenario supplied the analytic rung catches
  // the sample instead of dropping it.
  SsnBenchSpec spec;
  spec.n_drivers = 2;
  analysis::MeasureOptions mopts;
  mopts.transient.max_steps = 1;
  const core::SsnScenario scenario = analysis::make_scenario(
      cal(), spec.package, spec.n_drivers, spec.input_rise_time, true);

  const auto degraded = analysis::measure_ssn(spec, mopts, &scenario);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.degraded());
  EXPECT_EQ(degraded.fidelity, Fidelity::kAnalytic);
  ASSERT_TRUE(degraded.error.has_value());
  EXPECT_EQ(degraded.error->kind(), SolverErrorKind::kStepBudgetExhausted);
  EXPECT_EQ(degraded.attempts.back().rung, "analytic");
  EXPECT_TRUE(degraded.attempts.back().succeeded);
  EXPECT_DOUBLE_EQ(degraded.measurement.v_max,
                   analysis::analytic_measurement(scenario).v_max);

  const auto failed = analysis::measure_ssn(spec, mopts);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.fidelity, Fidelity::kFailed);
  ASSERT_TRUE(failed.error.has_value());
  EXPECT_EQ(failed.error->kind(), SolverErrorKind::kStepBudgetExhausted);
}

TEST(BatchSummary, RecordsPerFidelityAndPerError) {
  analysis::BatchSummary summary;
  summary.record("a", Fidelity::kFullDevice, std::nullopt);
  summary.record("b", Fidelity::kTightenedDamping, std::nullopt);
  summary.record("c", Fidelity::kAnalytic,
                 support::SolverError(SolverErrorKind::kStepUnderflow, "x"));
  summary.record("d", Fidelity::kFailed,
                 support::SolverError(SolverErrorKind::kNewtonDivergence, "y"));
  EXPECT_EQ(summary.total, 4u);
  EXPECT_EQ(summary.full_fidelity, 1u);
  EXPECT_EQ(summary.recovered, 1u);
  EXPECT_EQ(summary.analytic, 1u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_FALSE(summary.all_full_fidelity());
  EXPECT_EQ(summary.by_fidelity.at("tighten-damping"), 1u);
  EXPECT_EQ(summary.by_error.at("step-underflow"), 1u);
  EXPECT_EQ(summary.by_error.at("newton-divergence"), 1u);
  ASSERT_EQ(summary.notes.size(), 3u);
  EXPECT_EQ(summary.notes[0], "b: tighten-damping");
  EXPECT_EQ(summary.notes[1], "c: analytic [step-underflow]");
  EXPECT_EQ(summary.notes[2], "d: failed [newton-divergence]");
  const std::string s = summary.to_string();
  EXPECT_NE(s.find("4 runs: 1 full-fidelity"), std::string::npos);
  EXPECT_NE(s.find("1 recovered"), std::string::npos);
  EXPECT_NE(s.find("newton-divergence=1"), std::string::npos);
}

TEST(BatchSummary, AllFullFidelityWhenNothingDegrades) {
  analysis::BatchSummary summary;
  summary.record("a", Fidelity::kFullDevice, std::nullopt);
  summary.record("b", Fidelity::kFullDevice, std::nullopt);
  EXPECT_TRUE(summary.all_full_fidelity());
  EXPECT_TRUE(summary.notes.empty());
  EXPECT_EQ(summary.to_string(), "2 runs: 2 full-fidelity");
}

TEST(ResilientSweep, HealthySweepReportsAllFullFidelity) {
  analysis::DriverSweepConfig config;
  config.driver_counts = {1, 2};
  const auto result = analysis::run_driver_sweep(config);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(result.summary.all_full_fidelity());
  EXPECT_EQ(result.summary.total, 2u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.fidelity, Fidelity::kFullDevice);
    EXPECT_GT(row.sim, 0.0);
  }
}

TEST(ResilientSweep, FailingPointIsSkippedNotFatal) {
  // A 1-step budget kills every simulation; the sweep must complete with
  // zero rows and a summary accounting for both failed points.
  analysis::DriverSweepConfig config;
  config.driver_counts = {1, 2};
  config.batch.transient.max_steps = 1;
  const auto result = analysis::run_driver_sweep(config);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.summary.total, 2u);
  EXPECT_EQ(result.summary.failed, 2u);
  EXPECT_EQ(result.summary.by_error.at("step-budget-exhausted"), 2u);
  EXPECT_FALSE(result.summary.all_full_fidelity());
}

}  // namespace
