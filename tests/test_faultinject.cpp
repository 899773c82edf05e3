// Deterministic fault injection (support/faultinject.hpp). The injector's
// trigger logic is tested in every build; the end-to-end tests — every
// injected fault class recovers or surfaces a typed SolverError, never a
// crash, hang or silent NaN — need the instrumented binary and GTEST_SKIP
// elsewhere (build with the `fault-injection` preset to run them).
#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "circuit/circuit.hpp"
#include "circuit/testbench.hpp"
#include "cli/commands.hpp"
#include "sim/engine.hpp"
#include "sim/recovery.hpp"
#include "support/faultinject.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using support::FaultInjector;
using support::FaultKind;
using support::FaultPlan;
using support::SolverErrorKind;
using ssnkit::waveform::Dc;

class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm_all(); }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

// --- trigger logic (runs in every build) ------------------------------------

TEST_F(FaultInjection, FiresOnExactNthQuery) {
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.fire_on_nth = 3;
  injector.arm(FaultKind::kNewtonDivergence, plan);
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i)
    fired.push_back(injector.should_fire(FaultKind::kNewtonDivergence));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(injector.query_count(FaultKind::kNewtonDivergence), 5u);
  EXPECT_EQ(injector.fire_count(FaultKind::kNewtonDivergence), 1u);
}

TEST_F(FaultInjection, MaxFiresCapsCertainFiring) {
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  plan.max_fires = 2;
  injector.arm(FaultKind::kStepUnderflow, plan);
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (injector.should_fire(FaultKind::kStepUnderflow)) ++fires;
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(injector.fire_count(FaultKind::kStepUnderflow), 2u);
}

TEST_F(FaultInjection, SeededBernoulliSequenceIsReproducible) {
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.seed = 42;
  plan.probability = 0.5;
  const auto draw = [&] {
    injector.arm(FaultKind::kSingularLu, plan);
    std::vector<bool> seq;
    for (int i = 0; i < 100; ++i)
      seq.push_back(injector.should_fire(FaultKind::kSingularLu));
    return seq;
  };
  const auto a = draw();
  const auto b = draw();
  EXPECT_EQ(a, b);  // identical plan => identical fire sequence
  plan.seed = 43;
  EXPECT_NE(a, draw());
}

TEST_F(FaultInjection, DisarmedSiteNeverFires) {
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  injector.arm(FaultKind::kNanResidual, plan);
  EXPECT_TRUE(injector.should_fire(FaultKind::kNanResidual));
  injector.disarm(FaultKind::kNanResidual);
  EXPECT_FALSE(injector.should_fire(FaultKind::kNanResidual));
  // Other sites are independent.
  EXPECT_FALSE(injector.should_fire(FaultKind::kStepUnderflow));
}

TEST_F(FaultInjection, ArmResetsCounters) {
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.fire_on_nth = 1;
  injector.arm(FaultKind::kNewtonDivergence, plan);
  EXPECT_TRUE(injector.should_fire(FaultKind::kNewtonDivergence));
  injector.arm(FaultKind::kNewtonDivergence, plan);
  EXPECT_EQ(injector.query_count(FaultKind::kNewtonDivergence), 0u);
  EXPECT_TRUE(injector.should_fire(FaultKind::kNewtonDivergence));
}

TEST_F(FaultInjection, KindNamesRoundTripThroughTheRegistry) {
  // The chaos harness addresses sites by name; every kind — including the
  // trust-layer classes — must round-trip, and unknown names must fail.
  for (int k = 0; k < support::kFaultKindCount; ++k) {
    FaultKind out = FaultKind::kNewtonDivergence;
    ASSERT_TRUE(
        support::fault_kind_from_name(support::to_string(FaultKind(k)), out))
        << support::to_string(FaultKind(k));
    EXPECT_EQ(out, FaultKind(k));
  }
  FaultKind sink = FaultKind::kNewtonDivergence;
  EXPECT_FALSE(support::fault_kind_from_name("meteor-strike", sink));
  EXPECT_FALSE(support::fault_kind_from_name("", sink));
}

TEST_F(FaultInjection, ArmFromPlanStringArmsNamedSites) {
  auto& injector = FaultInjector::instance();
  EXPECT_EQ(support::arm_from_plan_string(
                "seed=7,factor-bit-flip=1.0,cache-rot=0.5,journal-truncate=1"),
            3u);
  // p = 1.0 sites fire on the first query; the p = 0.5 site is armed (its
  // draw stream is seeded, so whether it fires is deterministic either way).
  EXPECT_TRUE(injector.should_fire(FaultKind::kFactorBitFlip));
  EXPECT_TRUE(injector.should_fire(FaultKind::kJournalTruncate));
  injector.should_fire(FaultKind::kCacheRot);
  EXPECT_EQ(injector.query_count(FaultKind::kCacheRot), 1u);
}

TEST_F(FaultInjection, ArmFromPlanStringSkipsMalformedEntriesBestEffort) {
  auto& injector = FaultInjector::instance();
  // Of these entries only journal-truncate=0.5 is valid: seed value is not
  // a number, one key is empty, one probability is garbage, one kind is
  // unknown, one probability is out of (0, 1], one entry has no '='.
  EXPECT_EQ(support::arm_from_plan_string(
                "seed=x,=0.5,factor-bit-flip=abc,meteor-strike=0.5,"
                "cache-rot=2.0,journal-truncate=0.5,factor-bit-flip"),
            1u);
  EXPECT_FALSE(injector.should_fire(FaultKind::kFactorBitFlip));
  EXPECT_FALSE(injector.should_fire(FaultKind::kCacheRot));
  EXPECT_EQ(injector.query_count(FaultKind::kJournalTruncate), 0u);
  // The empty plan arms nothing at all.
  EXPECT_EQ(support::arm_from_plan_string(""), 0u);
}

TEST_F(FaultInjection, PlanStringSeedMakesTheStreamsReproducible) {
  auto& injector = FaultInjector::instance();
  const auto draw_pattern = [&] {
    injector.disarm_all();
    support::arm_from_plan_string("seed=42,factor-bit-flip=0.5");
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i)
      fired.push_back(injector.should_fire(FaultKind::kFactorBitFlip));
    return fired;
  };
  const auto first = draw_pattern();
  const auto second = draw_pattern();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
}

TEST_F(FaultInjection, PlanStringSampleSuffixScopesTheSite) {
  auto& injector = FaultInjector::instance();
  // `worker-crash@13=1` arms the site restricted to sample scope 13 — the
  // chaos soak's deterministic poison pill (serve workers scope requests by
  // driver count).
  EXPECT_EQ(support::arm_from_plan_string("seed=7,worker-crash@13=1"), 1u);
  // Dead outside any scope, and in the wrong scope.
  EXPECT_FALSE(injector.should_fire(FaultKind::kWorkerCrash));
  {
    support::FaultSampleScope wrong(12);
    EXPECT_FALSE(injector.should_fire(FaultKind::kWorkerCrash));
  }
  {
    support::FaultSampleScope right(13);
    EXPECT_TRUE(injector.should_fire(FaultKind::kWorkerCrash));
  }
  // Malformed suffixes are skipped best-effort, like every other entry.
  injector.disarm_all();
  EXPECT_EQ(support::arm_from_plan_string(
                "worker-crash@=1,worker-hang@x=1,worker-oom@1.5=1"),
            0u);
}

// --- end-to-end (instrumented builds only) ----------------------------------

#define SSN_NEEDS_INSTRUMENTED_BUILD()                                 \
  do {                                                                 \
    if (!support::kFaultInjectionEnabled)                              \
      GTEST_SKIP() << "SSNKIT_FAULT_INJECTION is compiled out; "       \
                      "use the fault-injection preset";                \
  } while (0)

const analysis::Calibration& cal() {
  static const analysis::Calibration c =
      analysis::calibrate(process::tech_180nm());
  return c;
}

SsnBenchSpec small_spec() {
  SsnBenchSpec spec;
  spec.n_drivers = 2;
  return spec;
}

TransientOptions bench_opts(const SsnBench& bench, double rise) {
  TransientOptions opts;
  opts.t_stop = bench.t_ramp_end;
  opts.dt_max = rise / 200.0;
  return opts;
}

void expect_waveform_finite(const TransientResult& result,
                            const std::string& node, double t_stop) {
  const auto& w = result.waveform(node);
  for (int i = 0; i <= 100; ++i) {
    const double t = t_stop * double(i) / 100.0;
    EXPECT_TRUE(std::isfinite(w.sample(t))) << node << " at t=" << t;
  }
}

TEST_F(FaultInjection, SingleTransientFaultsRecoverInline) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // One forced Newton divergence / LU singularity / NaN update mid-run is
  // absorbed by the engine's own step cutting (or the DC gmin homotopy):
  // full fidelity, no NaN anywhere in the waveform.
  for (FaultKind kind : {FaultKind::kNewtonDivergence, FaultKind::kSingularLu,
                         FaultKind::kNanResidual}) {
    auto& injector = FaultInjector::instance();
    FaultPlan plan;
    plan.fire_on_nth = 10;
    injector.arm(kind, plan);

    const SsnBenchSpec spec = small_spec();
    SsnBench bench = make_ssn_testbench(spec);
    const TransientOptions opts = bench_opts(bench, spec.input_rise_time);
    const RecoveryOutcome out = run_transient_resilient(bench.circuit, opts);
    injector.disarm(kind);

    ASSERT_TRUE(out.ok()) << "fault kind: " << support::to_string(kind);
    EXPECT_EQ(out.fidelity, Fidelity::kFullDevice)
        << "fault kind: " << support::to_string(kind);
    EXPECT_EQ(injector.fire_count(kind), 1u);
    expect_waveform_finite(out.result, bench.vssi_node, opts.t_stop);
  }
}

TEST_F(FaultInjection, FactorBitFlipIsNeverSilentlyWrong) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // A silently corrupted LU factor is the trust layer's canonical enemy:
  // the solve "succeeds" with wrong numbers. Depending on where the flip
  // lands, one of three honest outcomes is allowed — the next Newton
  // iteration re-factorizes and absorbs it (the numbers must then match a
  // clean run), the post-solve residual check catches it (refined with an
  // SSN-W070 note, or a typed kResidualDegraded failure), or the pivot
  // sanity check rejects the factors outright. What is never allowed is a
  // wrong number wearing a verified badge. Sweep the flip across every
  // factorization of the run and hold that contract at each site.
  auto& injector = FaultInjector::instance();
  const SsnBenchSpec spec = small_spec();

  SsnBench ref_bench = make_ssn_testbench(spec);
  const TransientOptions opts = bench_opts(ref_bench, spec.input_rise_time);
  const TransientResult ref =
      testutil::full_device(run_transient_ex(ref_bench.circuit, opts));
  ASSERT_EQ(ref.trust.verdict, ssnkit::verify::Verdict::kVerified)
      << ref.trust.summary();
  const double v_ref = ref.waveform(ref_bench.vssi_node).maximum().value;

  // Count the run's factorizations: arm a plan that can never fire and
  // read back how often the fault point was queried.
  FaultPlan probe;
  probe.fire_on_nth = std::size_t(-1);  // query-count probe: never fires
  injector.arm(FaultKind::kFactorBitFlip, probe);
  {
    SsnBench bench = make_ssn_testbench(spec);
    testutil::full_device(run_transient_ex(
        bench.circuit, bench_opts(bench, spec.input_rise_time)));
  }
  const auto sites = unsigned(
      injector.query_count(FaultKind::kFactorBitFlip));
  injector.disarm(FaultKind::kFactorBitFlip);
  ASSERT_GE(sites, 10u);

  unsigned healed = 0, confessed = 0, failed_typed = 0;
  for (unsigned nth = 1; nth <= sites; ++nth) {
    FaultPlan plan;
    plan.fire_on_nth = nth;
    injector.arm(FaultKind::kFactorBitFlip, plan);
    SsnBench bench = make_ssn_testbench(spec);
    const TransientRun run = run_transient_ex(
        bench.circuit, bench_opts(bench, spec.input_rise_time));
    const bool fired = injector.fire_count(FaultKind::kFactorBitFlip) == 1u;
    injector.disarm(FaultKind::kFactorBitFlip);
    ASSERT_TRUE(fired) << "site " << nth << " of " << sites;

    if (run.error) {
      ++failed_typed;  // typed failure: honest, the ladder would retry
      continue;
    }
    expect_waveform_finite(run.result, bench.vssi_node, opts.t_stop);
    if (run.result.trust.verdict == ssnkit::verify::Verdict::kVerified) {
      // Absorbed before any accepted solve: the verdict is only honest if
      // the numbers actually match the clean run's.
      const double v =
          run.result.waveform(bench.vssi_node).maximum().value;
      EXPECT_NEAR(v, v_ref, 1e-6 * std::fabs(v_ref) + 1e-9)
          << "site " << nth << ": verified but wrong — the trust layer "
          << "served a corrupted number with a verified badge";
      ++healed;
    } else {
      // Refined or degraded: the downgrade must come with its note.
      bool noted = false;
      for (const auto& n : run.result.trust.notes)
        if (n.find("SSN-W070") != std::string::npos ||
            n.find("SSN-W071") != std::string::npos)
          noted = true;
      EXPECT_TRUE(noted) << run.result.trust.summary();
      ++confessed;
    }
  }
  EXPECT_EQ(healed + confessed + failed_typed, sites);
  // With the default tolerances every flip is absorbed: Newton's own
  // convergence test (abstol 1e-9 V) screens out any corrupted update the
  // residual check could see, so `healed == sites` here is the expected
  // outcome, not a gap.
  EXPECT_EQ(healed, sites);

  // The residual check earns its keep in the regime Newton cannot heal.
  // A single flip is always repaired by the next iteration's clean
  // refactorization — that is exactly why every site above healed. So
  // corrupt EVERY factorization (probability 1): the engine solves the
  // full MNA system A·x = b each iteration, and with a persistently
  // perturbed factor M the iteration converges to the fixed point
  // M(x*)·x* = b(x*), whose true linear residual (M − A)·x* carries an
  // irreducible ~2^-4 pivot term no refactorization can remove. The
  // post-solve residual check is now the only line of defense and it must
  // engage: the run either fails typed (kResidualDegraded), or survives
  // only with a refined/degraded verdict and its SSN-W070/W071 note — and
  // if any accepted point still says verified, its numbers must match the
  // clean reference.
  FaultPlan persistent;
  persistent.probability = 1.0;
  injector.arm(FaultKind::kFactorBitFlip, persistent);
  SsnBench pbench = make_ssn_testbench(spec);
  const TransientRun prun = run_transient_ex(
      pbench.circuit, bench_opts(pbench, spec.input_rise_time));
  const auto fires = injector.fire_count(FaultKind::kFactorBitFlip);
  injector.disarm(FaultKind::kFactorBitFlip);
  ASSERT_GE(fires, 2u) << "persistent plan never fired";

  bool caught = false;
  if (prun.error) {
    caught = true;  // typed failure: honest, nothing was served
  } else if (prun.result.trust.verdict != ssnkit::verify::Verdict::kVerified) {
    EXPECT_GE(prun.result.stats.residual_checks, 1u);
    bool noted = false;
    for (const auto& n : prun.result.trust.notes)
      if (n.find("SSN-W070") != std::string::npos ||
          n.find("SSN-W071") != std::string::npos)
        noted = true;
    EXPECT_TRUE(noted) << prun.result.trust.summary();
    caught = true;
  } else {
    // A verified badge under wall-to-wall corruption is only acceptable if
    // refinement scrubbed every accepted solve back to the true system —
    // in which case the numbers must be right.
    const double v = prun.result.waveform(pbench.vssi_node).maximum().value;
    EXPECT_NEAR(v, v_ref, 1e-6 * std::fabs(v_ref) + 1e-9)
        << "persistent corruption: verified but wrong";
    caught = prun.result.trust.refinements > 0;
  }
  EXPECT_TRUE(caught)
      << "every factorization of the run was corrupted, yet the residual "
         "check never engaged (verdict: " << prun.result.trust.summary()
      << ")";
}

TEST_F(FaultInjection, RepeatedUnderflowClimbsToAlternateIntegrator) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // Exactly two forced underflows: the full-device and tighten-damping
  // rungs each die at their first step, the alternate-integrator rung runs
  // clean.
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  plan.max_fires = 2;
  injector.arm(FaultKind::kStepUnderflow, plan);

  const SsnBenchSpec spec = small_spec();
  SsnBench bench = make_ssn_testbench(spec);
  const TransientOptions opts = bench_opts(bench, spec.input_rise_time);
  const RecoveryOutcome out = run_transient_resilient(bench.circuit, opts);

  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.fidelity, Fidelity::kAlternateIntegrator);
  ASSERT_EQ(out.attempts.size(), 3u);
  EXPECT_FALSE(out.attempts[0].succeeded);
  EXPECT_FALSE(out.attempts[1].succeeded);
  EXPECT_TRUE(out.attempts[2].succeeded);
  EXPECT_EQ(injector.fire_count(FaultKind::kStepUnderflow), 2u);
  expect_waveform_finite(out.result, bench.vssi_node, opts.t_stop);
}

TEST_F(FaultInjection, UnlimitedUnderflowExhaustsLadderWithTypedError) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  injector.arm(FaultKind::kStepUnderflow, plan);

  const SsnBenchSpec spec = small_spec();
  SsnBench bench = make_ssn_testbench(spec);
  const TransientOptions opts = bench_opts(bench, spec.input_rise_time);
  const RecoveryOutcome out = run_transient_resilient(bench.circuit, opts);

  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.fidelity, Fidelity::kFailed);
  EXPECT_EQ(out.attempts.size(), 5u);
  EXPECT_EQ(out.error->kind(), SolverErrorKind::kStepUnderflow);
  EXPECT_TRUE(out.error->diagnostics().injected);
  EXPECT_EQ(out.error->diagnostics().recovery_trail.size(), 5u);
}

TEST_F(FaultInjection, ExhaustedLadderDegradesToAnalyticRung) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  injector.arm(FaultKind::kStepUnderflow, plan);

  const SsnBenchSpec spec = small_spec();
  const core::SsnScenario scenario = analysis::make_scenario(
      cal(), spec.package, spec.n_drivers, spec.input_rise_time, true);
  const auto m = analysis::measure_ssn(spec, {}, &scenario);

  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.fidelity, Fidelity::kAnalytic);
  ASSERT_TRUE(m.error.has_value());
  EXPECT_TRUE(m.error->diagnostics().injected);
  EXPECT_DOUBLE_EQ(m.measurement.v_max,
                   analysis::analytic_measurement(scenario).v_max);
}

TEST_F(FaultInjection, EstimateVerifyReportsTheAnalyticRung) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // Every simulation rung fails: `estimate --verify` takes the analytic
  // rung, as a serve sim estimate does, and prints the fidelity it reached.
  FaultPlan plan;
  plan.probability = 1.0;
  FaultInjector::instance().arm(FaultKind::kStepUnderflow, plan);
  std::ostringstream out, err;
  ASSERT_EQ(cli::run_cli({"estimate", "--n", "4", "--verify"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("simulated max SSN"), std::string::npos);
  EXPECT_NE(out.str().find("\nfidelity: analytic\n"), std::string::npos)
      << out.str();
}

TEST_F(FaultInjection, DcNewtonFaultForcesGminStepping) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // Killing the plain-Newton stage routes the DC solve through the gmin
  // homotopy; the solution must match the uninjected one exactly.
  const auto build = [] {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    ckt.add_vsource("V1", a, kGround, Dc{1.0});
    ckt.add_resistor("R1", a, b, 1e3);
    ckt.add_resistor("R2", b, kGround, 1e3);
    return ckt;
  };
  Circuit clean_ckt = build();
  const double v_clean = dc_operating_point(clean_ckt).voltage(clean_ckt, "b");

  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.fire_on_nth = 1;  // first Newton iteration of the plain stage
  injector.arm(FaultKind::kNewtonDivergence, plan);
  Circuit ckt = build();
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_TRUE(dc.used_gmin_stepping);
  EXPECT_FALSE(dc.used_source_stepping);
  // The whole ramp, gmin = 1e-2 down to 1e-12, then the plain solve.
  const std::vector<std::pair<std::string, std::size_t>> trail = {
      {"plain-newton", 1}, {"gmin=1e-02", 2}, {"gmin=1e-04", 2},
      {"gmin=1e-06", 2},   {"gmin=1e-08", 2}, {"gmin=1e-10", 2},
      {"gmin=1e-12", 1},   {"gmin-final", 1}};
  ASSERT_EQ(dc.homotopy_trail.size(), trail.size());
  for (std::size_t i = 0; i < trail.size(); ++i) {
    EXPECT_EQ(dc.homotopy_trail[i].name, trail[i].first);
    EXPECT_EQ(dc.homotopy_trail[i].converged, i > 0) << trail[i].first;
    EXPECT_EQ(dc.homotopy_trail[i].iterations, trail[i].second)
        << trail[i].first;
  }
  EXPECT_EQ(dc.iterations, 13u);
  EXPECT_DOUBLE_EQ(dc.voltage(ckt, "b"), v_clean);
}

TEST_F(FaultInjection, NewtonFailureAtTheMinimumStepIsRescuedByGmin) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // Fixed 1 ps steps over 1 ns from the initial conditions, DC sources
  // only (no breakpoint shortens a step). Newton fails 15 times at the
  // first timepoint, each time at a quarter of the step, until the step
  // cannot shrink past 1e-12 of the span; the gmin ramp then rescues the
  // point. The counters are pinned: the rescue adds its iterations, the
  // steps after it restart from a tiny one, and none of it may move.
  const process::Technology tech = process::tech_180nm();
  std::shared_ptr<const devices::MosfetModel> nmos(
      tech.make_golden(process::GoldenKind::kAlphaPower));
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  const NodeId vssi = ckt.node("vssi");
  ckt.add_vsource("Vdd", vdd, kGround, Dc{tech.vdd});
  ckt.add_vsource("Vin", in, kGround, Dc{0.5 * tech.vdd + 0.35});
  ckt.add_resistor("Rload", vdd, out, 200.0);
  ckt.add_mosfet("Mn", out, in, vssi, kGround, nmos);
  ckt.add_inductor("Lgnd", vssi, kGround, 5e-9);
  ckt.add_capacitor("Cpad", vssi, kGround, 1e-12);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.adaptive = false;
  opts.dt_initial = 1e-12;
  opts.use_ic = true;
  opts.newton_gmin_recovery = true;

  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  plan.max_fires = 15;
  injector.arm(FaultKind::kNewtonDivergence, plan);
  const TransientRun run = run_transient_ex(ckt, opts);
  ASSERT_TRUE(run.ok()) << run.error->what();
  EXPECT_EQ(injector.fire_count(FaultKind::kNewtonDivergence), 15u);
  EXPECT_EQ(run.result.stats.gmin_rescues, 1u);
  EXPECT_EQ(run.result.stats.newton_failures, 27u);
  EXPECT_EQ(run.result.stats.newton_iterations, 3248u);
  EXPECT_EQ(run.result.stats.accepted_steps, 1002u);
}

TEST_F(FaultInjection, DcNewtonFaultCascadeForcesSourceStepping) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // Two fires kill plain Newton and the first gmin stage, so the gmin
  // homotopy aborts and the source-stepping branch finishes the solve.
  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.probability = 1.0;
  plan.max_fires = 2;
  injector.arm(FaultKind::kNewtonDivergence, plan);

  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_resistor("R1", a, b, 1e3);
  ckt.add_resistor("R2", b, kGround, 1e3);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_TRUE(dc.used_source_stepping);
  EXPECT_NEAR(dc.voltage(ckt, "b"), 0.5, 1e-6);
}

TEST_F(FaultInjection, SeededSoakIsBitForBitReproducible) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // A probabilistic underflow storm over the whole ladder: the outcome
  // (fidelity, attempt count, waveform) must be identical when the same
  // plan is re-armed.
  const auto run_once = [] {
    auto& injector = FaultInjector::instance();
    FaultPlan plan;
    plan.seed = 7;
    plan.probability = 0.3;
    plan.max_fires = 3;
    injector.arm(FaultKind::kStepUnderflow, plan);
    const SsnBenchSpec spec = small_spec();
    SsnBench bench = make_ssn_testbench(spec);
    const TransientOptions opts = bench_opts(bench, spec.input_rise_time);
    RecoveryOutcome out = run_transient_resilient(bench.circuit, opts);
    injector.disarm_all();
    return out;
  };
  const RecoveryOutcome a = run_once();
  const RecoveryOutcome b = run_once();
  EXPECT_EQ(a.fidelity, b.fidelity);
  EXPECT_EQ(a.attempts.size(), b.attempts.size());
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    EXPECT_EQ(a.result.point_count(), b.result.point_count());
    EXPECT_DOUBLE_EQ(a.result.final_value("vssi"),
                     b.result.final_value("vssi"));
  }
}

TEST_F(FaultInjection, MonteCarloSurvivorsMatchUninjectedRun) {
  SSN_NEEDS_INSTRUMENTED_BUILD();
  // One injected failure in the first sample's first attempt: the batch
  // completes, the hit sample recovers on a ladder rung, and the remaining
  // samples are bit-for-bit identical to the uninjected baseline (the
  // variation factors are drawn up front, so failures cannot shift them).
  analysis::SimMonteCarloOptions opts;
  opts.samples = 3;
  const auto pkg = process::package_pga();
  const auto baseline =
      analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9, true, opts);
  ASSERT_EQ(baseline.surviving, 3u);
  ASSERT_TRUE(baseline.summary.all_full_fidelity());

  auto& injector = FaultInjector::instance();
  FaultPlan plan;
  plan.fire_on_nth = 1;
  plan.max_fires = 1;
  // Each sample runs in its own FaultSampleScope with its own trigger
  // stream, so an untargeted fire_on_nth=1 would hit every sample's first
  // query; only_sample confines the fault to sample 0.
  plan.only_sample = 0;
  injector.arm(FaultKind::kStepUnderflow, plan);
  const auto injected =
      analysis::monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9, true, opts);

  EXPECT_EQ(injected.surviving, 3u);
  EXPECT_EQ(injected.summary.total, 3u);
  EXPECT_EQ(injected.summary.recovered, 1u);
  ASSERT_EQ(injected.samples.size(), 3u);
  EXPECT_NE(injected.samples[0].fidelity, Fidelity::kFullDevice);
  // The faulted sample recovered on a cheaper rung: same physics, slightly
  // different numerics.
  EXPECT_NEAR(injected.samples[0].v_max, baseline.samples[0].v_max,
              1e-2 * baseline.samples[0].v_max);
  // Untouched samples are identical, factors included.
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(injected.samples[i].v_max, baseline.samples[i].v_max);
    EXPECT_DOUBLE_EQ(injected.samples[i].l_factor,
                     baseline.samples[i].l_factor);
    EXPECT_EQ(injected.samples[i].fidelity, Fidelity::kFullDevice);
  }
}

}  // namespace
