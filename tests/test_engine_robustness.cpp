// Engine robustness and accuracy properties: global convergence order,
// stamped-sparse solver validation on a large driver bank, Gear-2 on the
// full SSN bench, and pathological-input handling.
#include "analysis/measure.hpp"
#include "circuit/circuit.hpp"
#include "circuit/testbench.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using ssnkit::waveform::Dc;
using ssnkit::waveform::Pwl;

double rc_error_with_step(Integrator method, double h) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Pwl{{{0.0, 0.0}, {1e-15, 1.0}}});
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, kGround, 1e-12);
  TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.adaptive = false;
  opts.dt_initial = h;
  opts.method = method;
  const TransientResult res =
      testutil::full_device(run_transient_ex(ckt, opts));
  double err = 0.0;
  for (double t = 1e-9; t <= 3.5e-9; t += 0.25e-9)
    err = std::max(err, std::fabs(res.waveform("out").sample(t) -
                                  (1.0 - std::exp(-t / 1e-9))));
  return err;
}

TEST(ConvergenceOrder, BackwardEulerIsFirstOrder) {
  const double e1 = rc_error_with_step(Integrator::kBackwardEuler, 20e-12);
  const double e2 = rc_error_with_step(Integrator::kBackwardEuler, 10e-12);
  EXPECT_NEAR(e1 / e2, 2.0, 0.4);
}

TEST(ConvergenceOrder, TrapezoidalIsSecondOrder) {
  const double e1 = rc_error_with_step(Integrator::kTrapezoidal, 40e-12);
  const double e2 = rc_error_with_step(Integrator::kTrapezoidal, 20e-12);
  EXPECT_NEAR(e1 / e2, 4.0, 1.0);
}

TEST(ConvergenceOrder, Gear2IsSecondOrder) {
  const double e1 = rc_error_with_step(Integrator::kGear2, 40e-12);
  const double e2 = rc_error_with_step(Integrator::kGear2, 20e-12);
  EXPECT_NEAR(e1 / e2, 4.0, 1.2);
}

TEST(SparsePath, LargeDriverBankDcSatisfiesKcl) {
  // 24 drivers -> 76 unknowns (a distinct input delay per driver keeps
  // them from folding). The engine's stamped-sparse solver is the only path
  // now, so validate it against an independent dense assembly: the DC
  // solution it returns must satisfy KCL of the dense-stamped MNA system to
  // Newton tolerance.
  SsnBenchSpec spec;
  spec.n_drivers = 24;
  for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
  SsnBench bench = make_ssn_testbench(spec);
  ASSERT_EQ(bench.circuit.finalize(), 76);
  const DcResult dc = dc_operating_point(bench.circuit);

  const std::size_t n = std::size_t(bench.circuit.unknown_count());
  numeric::Matrix a(n, n);
  numeric::Vector b(n);
  StampContext ctx;
  ctx.mode = AnalysisMode::kDc;
  ctx.x = &dc.solution;
  ctx.a = &a;
  ctx.b = &b;
  for (const auto& el : bench.circuit.elements()) el->stamp(ctx);

  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = -b[i];
    for (std::size_t j = 0; j < n; ++j) row += a(i, j) * dc.solution[j];
    resid = std::max(resid, std::fabs(row));
  }
  EXPECT_LT(resid, 1e-4);
}

TEST(SparsePath, LargeDriverBankVmaxIsReproducible) {
  // Two independent runs of the full measurement exercise pattern caching
  // and refactorization reuse from scratch; they must agree exactly and
  // produce a physically sensible bounce. Distinct input delays keep all 24
  // drivers in the matrix.
  const auto run = [] {
    SsnBenchSpec spec;
    spec.n_drivers = 24;
    for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
    return testutil::full_device(analysis::measure_ssn(spec)).v_max;
  };
  const double v1 = run();
  const double v2 = run();
  EXPECT_EQ(v1, v2);
  EXPECT_GT(v1, 0.5);
}

TEST(SsnBenchIntegrators, AllMethodsAgreeOnVmax) {
  double v_ref = 0.0;
  for (auto method : {Integrator::kTrapezoidal, Integrator::kBackwardEuler,
                      Integrator::kGear2}) {
    SsnBenchSpec spec;
    spec.n_drivers = 8;
    analysis::MeasureOptions mopts;
    mopts.transient.method = method;
    mopts.transient.dt_max = spec.input_rise_time / 400.0;
    const double v =
        testutil::full_device(analysis::measure_ssn(spec, mopts)).v_max;
    if (v_ref == 0.0) v_ref = v;
    EXPECT_NEAR(v, v_ref, 0.01 * v_ref);
  }
}

TEST(Robustness, FloatingNodeReportsFailure) {
  // A node with no DC path at all: the operating point must fail loudly,
  // not return garbage — and the failure must be the typed SolverError
  // (still catchable as runtime_error for legacy callers).
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_capacitor("C1", b, kGround, 1e-12);  // b floats
  (void)a;
  EXPECT_THROW(dc_operating_point(ckt), std::runtime_error);
  try {
    dc_operating_point(ckt);
  } catch (const support::SolverError& e) {
    EXPECT_EQ(e.kind(), support::SolverErrorKind::kSingularMatrix);
    EXPECT_EQ(e.diagnostics().where, "dc_operating_point");
    EXPECT_FALSE(e.diagnostics().homotopy_trail.empty());
  }
}

TEST(Robustness, StepBudgetConvertsGrindToError) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_resistor("R1", a, kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.adaptive = false;
  opts.dt_initial = 1e-15;  // would need 1e6 steps
  opts.max_steps = 1000;
  const TransientRun run = run_transient_ex(ckt, opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error->kind(), support::SolverErrorKind::kStepBudgetExhausted);
  EXPECT_TRUE(run.error->retryable());
  EXPECT_TRUE(std::isfinite(run.error->diagnostics().time));
}

TEST(PathologicalFixtures, LargeNonlinearBankRecordsDcTrail) {
  // 32 strongly-driven nonlinear pull-downs sharing one bouncing rail
  // (distinct input delays keep them from folding into one): the DC solve
  // must converge and record how it did so.
  SsnBenchSpec spec;
  spec.n_drivers = 32;
  for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
  spec.bulk_to_vssi = true;
  SsnBench bench = make_ssn_testbench(spec);
  const DcResult dc = dc_operating_point(bench.circuit);
  ASSERT_FALSE(dc.homotopy_trail.empty());
  EXPECT_EQ(dc.homotopy_trail.front().name, "plain-newton");
  EXPECT_TRUE(dc.homotopy_trail.back().converged);
  EXPECT_GT(dc.iterations, 0u);
  EXPECT_NEAR(dc.voltage(bench.circuit, bench.vdd_node), spec.tech.vdd, 1e-6);
}

struct ExpectedStage {
  const char* name;
  bool converged;
  std::size_t iterations;
};

/// The DC homotopy trail, stage by stage: names, converged flags and
/// Newton iterations.
void expect_trail(const std::vector<support::HomotopyStage>& trail,
                  const std::vector<ExpectedStage>& expected) {
  ASSERT_EQ(trail.size(), expected.size());
  for (std::size_t i = 0; i < trail.size(); ++i) {
    EXPECT_EQ(trail[i].name, expected[i].name) << "stage " << i;
    EXPECT_EQ(trail[i].converged, expected[i].converged) << "stage " << i;
    EXPECT_EQ(trail[i].iterations, expected[i].iterations) << "stage " << i;
  }
}

TEST(PathologicalFixtures, StarvedNewtonFallsBackToHomotopy) {
  // Starve Newton of iterations while capping the per-iteration voltage
  // move: the plain stage cannot walk the supply rail up to vdd, so the DC
  // solve must escalate through the homotopy branches and still land on
  // the right operating point.
  SsnBenchSpec spec;
  spec.n_drivers = 8;
  SsnBench bench = make_ssn_testbench(spec);
  NewtonOptions nopts;
  nopts.max_voltage_step = 0.05;  // vdd = 1.8 V: needs ~36 damped iterations
  nopts.max_iterations = 10;
  const DcResult dc = dc_operating_point(bench.circuit, 0.0, nopts);
  EXPECT_TRUE(dc.used_gmin_stepping || dc.used_source_stepping);
  // Plain Newton and the first gmin stage run out of iterations; source
  // stepping then finishes in ten stages of five.
  expect_trail(dc.homotopy_trail, {{"plain-newton", false, 10},
                                   {"gmin=1e-02", false, 10},
                                   {"source=1e-01", true, 5},
                                   {"source=2e-01", true, 5},
                                   {"source=3e-01", true, 5},
                                   {"source=4e-01", true, 5},
                                   {"source=5e-01", true, 5},
                                   {"source=6e-01", true, 5},
                                   {"source=7e-01", true, 5},
                                   {"source=8e-01", true, 5},
                                   {"source=9e-01", true, 5},
                                   {"source=1e+00", true, 5}});
  EXPECT_EQ(dc.iterations, 70u);
  EXPECT_NEAR(dc.voltage(bench.circuit, bench.vdd_node), spec.tech.vdd, 1e-6);
  // The result agrees with the unconstrained solve.
  SsnBench fresh = make_ssn_testbench(spec);
  const DcResult easy = dc_operating_point(fresh.circuit);
  EXPECT_NEAR(dc.voltage(bench.circuit, bench.vssi_node),
              easy.voltage(fresh.circuit, bench.vssi_node), 1e-6);
}

TEST(PathologicalFixtures, HopelessNewtonBudgetCarriesFullTrail) {
  // With an absurdly tight step cap even the homotopies cannot finish: the
  // typed error must show every branch that was attempted and the residual
  // the final one stalled at (satellite: DC failure diagnostics).
  SsnBenchSpec spec;
  spec.n_drivers = 4;
  SsnBench bench = make_ssn_testbench(spec);
  NewtonOptions nopts;
  nopts.max_voltage_step = 1e-4;
  nopts.max_iterations = 3;
  try {
    dc_operating_point(bench.circuit, 0.0, nopts);
    FAIL() << "expected SolverError";
  } catch (const support::SolverError& e) {
    const auto& diag = e.diagnostics();
    EXPECT_EQ(diag.where, "dc_operating_point");
    EXPECT_EQ(diag.newton_iterations, 9u);
    expect_trail(diag.homotopy_trail, {{"plain-newton", false, 3},
                                       {"gmin=1e-02", false, 3},
                                       {"source=1e-01", false, 3}});
    EXPECT_TRUE(std::isfinite(diag.residual));
    EXPECT_GT(diag.residual, 0.0);
  }
}

TEST(Robustness, ZeroLengthRampRejected) {
  Circuit ckt;
  EXPECT_THROW(ckt.add_vsource("V1", ckt.node("a"), kGround,
                               ssnkit::waveform::Ramp{0.0, 1.0, 0.0, 0.0}),
               std::invalid_argument);
}

TEST(Robustness, RepeatSimulationIsIdempotent) {
  // Running the same circuit object twice must give identical results
  // (element history fully re-initialized each run).
  SsnBench bench = make_ssn_testbench({});
  TransientOptions opts;
  opts.t_stop = 0.1e-9;
  const auto r1 = testutil::full_device(run_transient_ex(bench.circuit, opts));
  const auto r2 = testutil::full_device(run_transient_ex(bench.circuit, opts));
  EXPECT_EQ(r1.point_count(), r2.point_count());
  EXPECT_DOUBLE_EQ(r1.final_value("vssi"), r2.final_value("vssi"));
}

TEST(Robustness, DcAtNonzeroTimeUsesSourceValue) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", a, kGround,
                  ssnkit::waveform::Ramp{0.0, 2.0, 0.0, 1e-9});
  ckt.add_resistor("R1", a, kGround, 1e3);
  EXPECT_NEAR(dc_operating_point(ckt, 0.5e-9).voltage(ckt, "a"), 1.0, 1e-9);
  EXPECT_NEAR(dc_operating_point(ckt, 5e-9).voltage(ckt, "a"), 2.0, 1e-9);
}

}  // namespace
