// The numerical trust layer: verdict algebra, the scaled-residual check and
// Hager condition estimator, iterative-refinement recovery, the physics
// invariants (passivity / extremum / closed-form cross-check), and the
// trust statistics carried by Monte Carlo (ci95 shrink, thread invariance,
// journal-resume bit-identity of verdicts).
#include "analysis/calibrate.hpp"
#include "analysis/design.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "circuit/testbench.hpp"
#include "core/lc_model.hpp"
#include "numeric/sparse.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"
#include "verify/physics.hpp"
#include "verify/residual.hpp"
#include "verify/trust.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace ssnkit;
using verify::TrustReport;
using verify::Verdict;

// --- verdict algebra --------------------------------------------------------

TEST(TrustVerdict, RankOrderAndWorse) {
  EXPECT_LT(verify::verdict_rank(Verdict::kVerified),
            verify::verdict_rank(Verdict::kRefined));
  EXPECT_LT(verify::verdict_rank(Verdict::kRefined),
            verify::verdict_rank(Verdict::kUnverified));
  EXPECT_LT(verify::verdict_rank(Verdict::kUnverified),
            verify::verdict_rank(Verdict::kDegraded));
  EXPECT_EQ(verify::worse(Verdict::kVerified, Verdict::kDegraded),
            Verdict::kDegraded);
  EXPECT_EQ(verify::worse(Verdict::kRefined, Verdict::kVerified),
            Verdict::kRefined);
  EXPECT_EQ(verify::worse(Verdict::kUnverified, Verdict::kUnverified),
            Verdict::kUnverified);
}

TEST(TrustVerdict, NamesRoundTrip) {
  for (const Verdict v : {Verdict::kVerified, Verdict::kRefined,
                          Verdict::kUnverified, Verdict::kDegraded}) {
    Verdict parsed = Verdict::kVerified;
    ASSERT_TRUE(verify::verdict_from_name(verify::to_string(v), parsed))
        << verify::to_string(v);
    EXPECT_EQ(parsed, v);
  }
  Verdict sink = Verdict::kVerified;
  EXPECT_FALSE(verify::verdict_from_name("trustworthy", sink));
  EXPECT_FALSE(verify::verdict_from_name("", sink));
}

TEST(TrustReportAlgebra, DowngradeNeverImproves) {
  TrustReport t;
  t.verdict = Verdict::kVerified;
  t.downgrade(Verdict::kRefined);
  EXPECT_EQ(t.verdict, Verdict::kRefined);
  t.downgrade(Verdict::kVerified);  // an upgrade attempt is a no-op
  EXPECT_EQ(t.verdict, Verdict::kRefined);
  t.downgrade(Verdict::kDegraded);
  EXPECT_EQ(t.verdict, Verdict::kDegraded);
}

TEST(TrustReportAlgebra, MergeTakesWorstOfEverything) {
  TrustReport a;
  a.verdict = Verdict::kVerified;
  a.residual = 1e-15;
  a.refinements = 1;
  a.note("SSN-W070: refined once");

  TrustReport b;
  b.verdict = Verdict::kDegraded;
  b.residual = 1e-6;
  b.cond_estimate = 1e12;
  b.refinements = 2;
  b.note("SSN-W071: residual stayed high");

  a.merge(b);
  EXPECT_EQ(a.verdict, Verdict::kDegraded);
  EXPECT_DOUBLE_EQ(a.residual, 1e-6);        // worst finite residual
  EXPECT_DOUBLE_EQ(a.cond_estimate, 1e12);   // finite beats NaN
  EXPECT_EQ(a.refinements, 3u);
  ASSERT_EQ(a.notes.size(), 2u);

  // Duplicate notes are not re-appended.
  a.merge(b);
  EXPECT_EQ(a.notes.size(), 2u);
}

TEST(TrustReportAlgebra, SummaryNamesTheVerdict) {
  TrustReport t;
  t.verdict = Verdict::kVerified;
  t.residual = 3.0e-15;
  EXPECT_NE(t.summary().find("verified"), std::string::npos);
  t.verdict = Verdict::kDegraded;
  EXPECT_NE(t.summary().find("degraded"), std::string::npos);
}

// --- scaled residual / norms / condition estimate ---------------------------

/// 3x3 test system with an MNA-like diagonally dominant pattern. The
/// discovery pass doubles as assembly, so one add() sweep suffices.
numeric::StampedMatrix small_system() {
  numeric::StampedMatrix a;
  a.begin_pattern(3);
  const double vals[3][3] = {
      {4.0, -1.0, 0.0}, {-1.0, 4.0, -2.0}, {0.0, -2.0, 5.0}};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      if (vals[r][c] != 0.0) a.add(r, c, vals[r][c]);
  a.finalize_pattern();
  return a;
}

TEST(ScaledResidual, ExactSolveIsMachineSmallPerturbedIsNot) {
  const numeric::StampedMatrix a = small_system();
  numeric::SparseFactor lu;
  ASSERT_TRUE(lu.factorize(a));
  numeric::Vector b(3), x;
  b[0] = 1.0;
  b[1] = -2.0;
  b[2] = 0.5;
  lu.solve(b, x);
  EXPECT_LT(verify::scaled_residual(a, x, b), 1e-13);

  numeric::Vector bad = x;
  bad[1] += 1e-3;
  EXPECT_GT(verify::scaled_residual(a, bad, b), 1e-6);
}

TEST(ScaledResidual, NonFiniteSolutionReadsAsMaximallyWrong) {
  const numeric::StampedMatrix a = small_system();
  numeric::Vector b(3), x(3);
  b[0] = 1.0;
  x[0] = std::nan("");
  EXPECT_TRUE(std::isinf(verify::scaled_residual(a, x, b)));
}

TEST(Norm1, MatchesHandComputedColumnSums) {
  // Columns sums of small_system(): {5, 7, 7} -> ||A||_1 = 7.
  EXPECT_DOUBLE_EQ(verify::norm1(small_system()), 7.0);
}

TEST(Condest, WellAndIllConditionedSystemsSeparate) {
  const numeric::StampedMatrix a = small_system();
  numeric::SparseFactor lu;
  ASSERT_TRUE(lu.factorize(a));
  const double cond_good = verify::condest_1norm(a, lu);
  EXPECT_GE(cond_good, 1.0);
  EXPECT_LT(cond_good, 1e3);

  numeric::StampedMatrix ill;
  ill.begin_pattern(2);
  ill.add(0, 0, 1.0);
  ill.add(1, 1, 1e-12);
  ill.finalize_pattern();
  numeric::SparseFactor lu2;
  ASSERT_TRUE(lu2.factorize(ill));
  EXPECT_GT(verify::condest_1norm(ill, lu2), 1e10);
}

// --- iterative refinement (the degraded-solve rescue) -----------------------

TEST(Refine, OneStepRecoversAPerturbedSolveOnANearSingularSystem) {
  // A nearly singular 2x2 (rows almost parallel), the shape a package
  // netlist takes when a tiny shunt conductance barely separates two nodes.
  numeric::StampedMatrix a;
  a.begin_pattern(2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1.0 + 1e-9);
  a.finalize_pattern();

  numeric::SparseFactor lu;
  ASSERT_TRUE(lu.factorize(a));
  numeric::Vector b(2), x;
  b[0] = 2.0;
  b[1] = 2.0 + 1e-9;  // exact solution x = (1, 1)
  lu.solve(b, x);

  // Corrupt the solve the way a rotted factor would: the residual check
  // must see it, and one refinement step must bring it back.
  x[0] += 1e-4;
  const double before = verify::scaled_residual(a, x, b);
  ASSERT_GT(before, 1e-8);
  numeric::Vector r, d;
  lu.refine(a, b, x, r, d);
  const double after = verify::scaled_residual(a, x, b);
  EXPECT_LT(after, 1e-12);
  EXPECT_LT(after, before * 1e-3);
  // cond ~ 4e9, so the recovered components are good to ~cond * eps.
  EXPECT_NEAR(x[0], 1.0, 1e-5);
  EXPECT_NEAR(x[1], 1.0, 1e-5);
}

// --- physics invariants ------------------------------------------------------

const analysis::Calibration& cal() {
  static const analysis::Calibration c =
      analysis::calibrate(process::tech_180nm());
  return c;
}

analysis::SsnMeasurement healthy_measurement(core::SsnScenario& scenario_out) {
  circuit::SsnBenchSpec spec;
  spec.tech = cal().tech;
  spec.n_drivers = 4;
  spec.input_rise_time = 0.1e-9;
  spec.include_package_c = true;
  analysis::SsnMeasurement m =
      testutil::full_device(analysis::measure_ssn(spec));
  scenario_out = analysis::make_scenario(cal(), spec.package, spec.n_drivers,
                                         spec.input_rise_time, true);
  return m;
}

TEST(PhysicsInvariants, HealthySimulationStaysVerified) {
  core::SsnScenario scenario;
  analysis::SsnMeasurement m = healthy_measurement(scenario);
  ASSERT_EQ(m.trust.verdict, Verdict::kVerified) << m.trust.summary();
  analysis::verify_measurement(m, scenario);
  EXPECT_EQ(m.trust.verdict, Verdict::kVerified) << m.trust.summary();
  EXPECT_GT(m.stats.residual_checks, 0u);
  EXPECT_LT(m.stats.worst_scaled_residual, 1e-9);
  EXPECT_GT(m.stats.condition_estimate, 0.0);
}

TEST(PhysicsInvariants, CorruptedExtremumIsCaughtAndDegrades) {
  core::SsnScenario scenario;
  analysis::SsnMeasurement m = healthy_measurement(scenario);
  m.v_max *= 5.0;  // the corruption a rotted cache entry would report
  analysis::verify_measurement(m, scenario);
  EXPECT_EQ(m.trust.verdict, Verdict::kDegraded);
  bool noted = false;
  for (const std::string& n : m.trust.notes)
    if (n.find("SSN-W073") != std::string::npos) noted = true;
  EXPECT_TRUE(noted);
}

TEST(PhysicsInvariants, PassivityViolationIsCaught) {
  core::SsnScenario scenario;
  analysis::SsnMeasurement m = healthy_measurement(scenario);
  // Scale the inductor current up: stored energy then exceeds what the
  // (unchanged) vssi record injected — no passive network does that.
  std::vector<double> scaled = m.i_l.values();
  for (double& v : scaled) v *= 3.0;
  const waveform::Waveform hot(m.i_l.times(), std::move(scaled));
  verify::PhysicsFindings f = verify::check_ground_path(
      scenario, m.vssi, hot, m.v_max, m.t_at_max);
  EXPECT_FALSE(f.passivity_ok);
  TrustReport t;
  t.verdict = Verdict::kVerified;
  verify::apply(f, t);
  EXPECT_EQ(t.verdict, Verdict::kDegraded);
}

TEST(PhysicsInvariants, ClosedFormCrossCheckEnforcesThePapersBar) {
  TrustReport ok;
  ok.verdict = Verdict::kVerified;
  EXPECT_TRUE(verify::cross_check_closed_form(1.00, 1.02, ok));
  EXPECT_EQ(ok.verdict, Verdict::kVerified);

  TrustReport bad;
  bad.verdict = Verdict::kVerified;
  EXPECT_FALSE(verify::cross_check_closed_form(1.00, 1.20, bad));
  EXPECT_EQ(bad.verdict, Verdict::kDegraded);
  bool noted = false;
  for (const std::string& n : bad.notes)
    if (n.find("SSN-W074") != std::string::npos) noted = true;
  EXPECT_TRUE(noted);
}

TEST(PhysicsInvariants, ClosedFormSelfCheckCatchesAWrongDampingCase) {
  core::SsnScenario s;
  s.n_drivers = 2;
  s.inductance = 1e-9;
  s.capacitance = 5e-12;
  s.slope = 3.6e9;
  s.vdd = 1.8;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  const core::LcModel model(s);
  ASSERT_EQ(model.max_case(), core::MaxSsnCase::kUnderDampedFirstPeak);

  // Case 3a's right value, the first peak, stays verified.
  TrustReport right;
  right.verdict = Verdict::kVerified;
  EXPECT_TRUE(verify::check_closed_form_peak(s, model.v_max(), right));
  EXPECT_EQ(right.verdict, Verdict::kVerified) << right.summary();
  EXPECT_TRUE(right.notes.empty());

  // The boundary value V_n(t_r) a case-3b selection would report is caught.
  TrustReport wrong;
  wrong.verdict = Verdict::kVerified;
  EXPECT_FALSE(
      verify::check_closed_form_peak(s, model.vn(s.t_ramp_end()), wrong));
  EXPECT_EQ(wrong.verdict, Verdict::kDegraded);
  ASSERT_EQ(wrong.notes.size(), 1u);
  EXPECT_NE(wrong.notes[0].find("SSN-W073"), std::string::npos);
}

TEST(PhysicsInvariants, ClosedFormEstimateCarriesTheSelfCheck) {
  const core::SsnScenario lc =
      analysis::make_scenario(cal(), process::package_pga(), 8, 0.1e-9, true);
  const analysis::SsnEstimate with_c = analysis::estimate_closed_form(lc);
  EXPECT_TRUE(with_c.lc());
  EXPECT_EQ(with_c.v_max, core::LcModel(lc).v_max());
  EXPECT_EQ(with_c.zeta, core::LcModel(lc).zeta());
  EXPECT_EQ(with_c.max_case, core::LcModel(lc).max_case());
  EXPECT_EQ(with_c.trust.verdict, Verdict::kVerified)
      << with_c.trust.summary();

  core::SsnScenario l_only = lc;
  l_only.capacitance = 0.0;
  const analysis::SsnEstimate without_c =
      analysis::estimate_closed_form(l_only);
  EXPECT_FALSE(without_c.lc());
  EXPECT_EQ(without_c.v_max, analysis::predict_vmax(l_only));
  EXPECT_EQ(without_c.trust.verdict, Verdict::kVerified)
      << without_c.trust.summary();
}

// --- Monte Carlo trust statistics -------------------------------------------

TEST(McTrust, Ci95ShrinksLikeOneOverRootN) {
  core::SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.capacitance = 1e-12;
  s.vdd = 1.8;
  s.slope = 1.8e10;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};

  analysis::MonteCarloOptions small_opts;
  small_opts.samples = 400;
  analysis::MonteCarloOptions big_opts;
  big_opts.samples = 1600;
  const auto small_run = analysis::monte_carlo_vmax(s, small_opts);
  const auto big_run = analysis::monte_carlo_vmax(s, big_opts);
  ASSERT_GT(small_run.ci95, 0.0);
  ASSERT_GT(big_run.ci95, 0.0);
  // 4x the samples -> half the half-width (the sample stddev itself moves a
  // little between draws, hence the generous band around 0.5).
  const double ratio = big_run.ci95 / small_run.ci95;
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 0.65);
  // And the reported interval matches its definition.
  EXPECT_NEAR(big_run.ci95,
              1.96 * big_run.stddev / std::sqrt(double(big_run.samples.size())),
              1e-12);
}

TEST(McTrust, SimTrustIsThreadCountInvariant) {
  analysis::SimMonteCarloOptions opts;
  opts.samples = 4;
  opts.seed = 777;
  const auto pkg = process::package_pga();
  const auto serial = analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9,
                                                     true, opts);
  ASSERT_EQ(serial.stop, support::StopReason::kNone);
  auto par_opts = opts;
  par_opts.batch.threads = 4;
  const auto parallel = analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9,
                                                       true, par_opts);
  ASSERT_EQ(parallel.stop, support::StopReason::kNone);
  EXPECT_EQ(serial.trust.verdict, parallel.trust.verdict);
  EXPECT_EQ(serial.ci95, parallel.ci95);  // bit-identical, not just close
  EXPECT_EQ(serial.trust.ci95, parallel.trust.ci95);
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i)
    EXPECT_EQ(serial.samples[i].verdict, parallel.samples[i].verdict) << i;
}

TEST(McTrust, VerdictsSurviveJournalResumeBitIdentically) {
  analysis::SimMonteCarloOptions opts;
  opts.samples = 4;
  opts.seed = 777;
  const auto pkg = process::package_pga();
  const auto clean = analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9,
                                                    true, opts);
  ASSERT_EQ(clean.stop, support::StopReason::kNone);

  const std::string path =
      testing::TempDir() + "verify_mc_trust_journal.txt";
  std::remove(path.c_str());
  auto part_opts = opts;
  support::RunContext budget;
  budget.set_item_budget(2);
  part_opts.batch.run_ctx = &budget;
  support::BatchJournal journal(path, "mc-sim", 7,
                                std::size_t(opts.samples));
  part_opts.batch.journal = &journal;
  const auto partial = analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9,
                                                      true, part_opts);
  ASSERT_EQ(partial.completed, 2u);

  const auto loaded = support::BatchJournal::load(path);
  auto resume_opts = opts;
  resume_opts.batch.resume = &loaded.items;
  const auto resumed = analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9,
                                                      true, resume_opts);
  ASSERT_EQ(resumed.stop, support::StopReason::kNone);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.trust.verdict, clean.trust.verdict);
  EXPECT_EQ(resumed.ci95, clean.ci95);
  EXPECT_EQ(resumed.mean, clean.mean);
  ASSERT_EQ(resumed.samples.size(), clean.samples.size());
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    EXPECT_EQ(resumed.samples[i].verdict, clean.samples[i].verdict) << i;
    EXPECT_EQ(resumed.samples[i].v_max, clean.samples[i].v_max) << i;
  }
  std::remove(path.c_str());
}

}  // namespace
