// The transient engine against closed-form linear-circuit responses. This
// is what justifies using src/sim as the paper's HSPICE stand-in.
#include "circuit/circuit.hpp"
#include "sim/engine.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using ssnkit::waveform::Dc;
using ssnkit::waveform::Pwl;
using ssnkit::waveform::Ramp;
using ssnkit::waveform::Waveform;

TEST(Dc, VoltageDivider) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Dc{10.0});
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_resistor("R2", out, kGround, 3e3);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "out"), 7.5, 1e-9);
  EXPECT_NEAR(dc.voltage(ckt, "in"), 10.0, 1e-9);
}

TEST(Dc, InductorIsShort) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_resistor("R1", a, b, 100.0);
  ckt.add_inductor("L1", b, kGround, 1e-9);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "b"), 0.0, 1e-9);
  // Branch current through the inductor: 1 V / 100 Ohm.
  const Element* l1 = ckt.find_element("L1");
  EXPECT_NEAR(dc.solution[std::size_t(ckt.branch_unknown_index(*l1))], 0.01, 1e-9);
}

TEST(Dc, CapacitorIsOpen) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{5.0});
  ckt.add_resistor("R1", a, b, 1e3);
  ckt.add_capacitor("C1", b, kGround, 1e-12);
  ckt.add_resistor("Rload", b, kGround, 1e9);  // keep node b well-posed
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "b"), 5.0, 1e-4);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_isource("I1", kGround, a, Dc{1e-3});  // pushes 1 mA into a
  ckt.add_resistor("R1", a, kGround, 2e3);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "a"), 2.0, 1e-9);
}

TEST(Dc, VccsGain) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Dc{1.0});
  ckt.add_vccs("G1", out, kGround, in, kGround, 2e-3);  // 2 mA out of node out
  ckt.add_resistor("R1", out, kGround, 1e3);
  const DcResult dc = dc_operating_point(ckt);
  // Current 2 mA flows out -> 0 through G1, pulled through R1: v = -2 V.
  EXPECT_NEAR(dc.voltage(ckt, "out"), -2.0, 1e-9);
}

// --- RC charging -------------------------------------------------------------

class RcChargeTest : public ::testing::TestWithParam<Integrator> {};

TEST_P(RcChargeTest, MatchesAnalytic) {
  // Step through R into C: v(t) = V*(1 - e^{-t/RC}), RC = 1 ns.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround,
                  Pwl{{{0.0, 0.0}, {1e-15, 1.0}}});  // near-ideal step
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, kGround, 1e-12);

  TransientOptions opts;
  opts.t_stop = 5e-9;
  opts.method = GetParam();
  opts.lte_reltol = 1e-5;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const Waveform v = result.waveform("out");
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-t / 1e-9);
    EXPECT_NEAR(v.sample(t), expected, 4e-3) << "t=" << t;
  }
  EXPECT_GT(result.stats.accepted_steps, 20u);
}

INSTANTIATE_TEST_SUITE_P(AllIntegrators, RcChargeTest,
                         ::testing::Values(Integrator::kBackwardEuler,
                                           Integrator::kTrapezoidal,
                                           Integrator::kGear2),
                         [](const ::testing::TestParamInfo<Integrator>& pinfo) {
                           switch (pinfo.param) {
                             case Integrator::kBackwardEuler: return "BE";
                             case Integrator::kTrapezoidal: return "Trap";
                             case Integrator::kGear2: return "Gear2";
                           }
                           return "?";
                         });

TEST(Transient, RlCurrentRise) {
  // Series R-L driven by a step: i(t) = (V/R)(1 - e^{-tR/L}).
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ckt.add_vsource("V1", in, kGround, Pwl{{{0.0, 0.0}, {1e-15, 1.0}}});
  ckt.add_resistor("R1", in, mid, 10.0);
  ckt.add_inductor("L1", mid, kGround, 10e-9);  // tau = 1 ns

  TransientOptions opts;
  opts.t_stop = 5e-9;
  opts.lte_reltol = 1e-5;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const Waveform i = result.waveform("I(L1)");
  for (double t : {1e-9, 3e-9}) {
    const double expected = 0.1 * (1.0 - std::exp(-t / 1e-9));
    EXPECT_NEAR(i.sample(t), expected, 1e-3) << "t=" << t;
  }
}

TEST(Transient, SeriesRlcUnderdampedRings) {
  // Series RLC step response, under-damped: check frequency and first peak.
  // L = 5 nH, C = 1 pF, R = 10 Ohm: omega0 = 1/sqrt(LC) = 1.414e10 rad/s,
  // zeta = R/2*sqrt(C/L) = 0.0707.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, kGround, Pwl{{{0.0, 0.0}, {1e-15, 1.0}}});
  ckt.add_resistor("R1", in, a, 10.0);
  ckt.add_inductor("L1", a, out, 5e-9);
  ckt.add_capacitor("C1", out, kGround, 1e-12);

  TransientOptions opts;
  opts.t_stop = 3e-9;
  opts.lte_reltol = 1e-5;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const Waveform v = result.waveform("out");

  const double omega0 = 1.0 / std::sqrt(5e-9 * 1e-12);
  const double zeta = 10.0 / 2.0 * std::sqrt(1e-12 / 5e-9);
  const double omega_d = omega0 * std::sqrt(1.0 - zeta * zeta);
  const double t_peak = M_PI / omega_d;
  const double v_peak = 1.0 + std::exp(-zeta * omega0 * t_peak);

  const auto peak = v.maximum();
  EXPECT_NEAR(peak.t, t_peak, 0.03 * t_peak);
  EXPECT_NEAR(peak.value, v_peak, 0.02 * v_peak);
}

TEST(Transient, ParallelRlcDecay) {
  // Current step into parallel RLC; final value v = I*R.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_isource("I1", kGround, a, Dc{1e-3});
  ckt.add_resistor("R1", a, kGround, 50.0);
  ckt.add_capacitor("C1", a, kGround, 1e-12);
  ckt.add_inductor("L1", a, ckt.node("b"), 5e-9);
  ckt.add_resistor("R2", ckt.node("b"), kGround, 1e3);

  TransientOptions opts;
  opts.t_stop = 50e-9;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  // At steady state the inductor shorts node a to R2: v = 1mA * (50||1050)...
  // Actually L in series with R2 forms a DC path: v = 1mA * (50 || 1000).
  const double r_eff = 1.0 / (1.0 / 50.0 + 1.0 / 1e3);
  EXPECT_NEAR(result.final_value("a"), 1e-3 * r_eff, 2e-4);
}

TEST(Transient, RampBreakpointIsHit) {
  // The engine must land exactly on ramp corners; check the source node
  // tracks the ramp tightly even with large allowed steps.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  ckt.add_vsource("V1", in, kGround, Ramp{0.0, 1.8, 1e-9, 0.1e-9});
  ckt.add_resistor("R1", in, kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 2e-9;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const Waveform v = result.waveform("in");
  EXPECT_NEAR(v.sample(1e-9), 0.0, 1e-9);
  EXPECT_NEAR(v.sample(1.05e-9), 0.9, 2e-2);
  EXPECT_NEAR(v.sample(1.1e-9), 1.8, 1e-9);
  // Breakpoints present as exact time points.
  bool saw_start = false, saw_end = false;
  for (double t : result.times()) {
    if (std::fabs(t - 1e-9) < 1e-16) saw_start = true;
    if (std::fabs(t - 1.1e-9) < 1e-16) saw_end = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);
}

TEST(Transient, UicHonorsInitialConditions) {
  // Pre-charged capacitor discharging through R: v(t) = 2 e^{-t/RC}.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_capacitor("C1", a, kGround, 1e-12, 2.0);
  ckt.add_resistor("R1", a, kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 3e-9;
  opts.use_ic = true;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const Waveform v = result.waveform("a");
  EXPECT_NEAR(v.sample(1e-9), 2.0 * std::exp(-1.0), 2e-2);
}

TEST(Transient, TrapezoidalBeatsBackwardEulerOnAccuracy) {
  const auto max_err_with = [](Integrator method) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add_vsource("V1", in, kGround, Pwl{{{0.0, 0.0}, {1e-15, 1.0}}});
    ckt.add_resistor("R1", in, out, 1e3);
    ckt.add_capacitor("C1", out, kGround, 1e-12);
    TransientOptions opts;
    opts.t_stop = 5e-9;
    opts.adaptive = false;        // fixed 5 ps steps
    opts.dt_initial = 5e-12;
    opts.method = method;
    const TransientResult result =
        testutil::full_device(run_transient_ex(ckt, opts));
    const Waveform v = result.waveform("out");
    double err = 0.0;
    for (double t = 0.2e-9; t < 5e-9; t += 0.2e-9)
      err = std::max(err, std::fabs(v.sample(t) - (1.0 - std::exp(-t / 1e-9))));
    return err;
  };
  const double err_be = max_err_with(Integrator::kBackwardEuler);
  const double err_trap = max_err_with(Integrator::kTrapezoidal);
  const double err_gear = max_err_with(Integrator::kGear2);
  EXPECT_LT(err_trap, err_be / 5.0);
  EXPECT_LT(err_gear, err_be);
}

TEST(Transient, StatsArepopulated) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_resistor("R1", a, kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  EXPECT_GT(result.stats.accepted_steps, 0u);
  EXPECT_GT(result.stats.newton_iterations, 0u);
  EXPECT_GT(result.point_count(), 1u);
  EXPECT_TRUE(result.has_signal("a"));
  EXPECT_TRUE(result.has_signal("I(V1)"));
  EXPECT_FALSE(result.has_signal("nope"));
  EXPECT_THROW(result.waveform("nope"), std::out_of_range);
}

TEST(Transient, BadWindowThrows) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 0.0;
  EXPECT_THROW(run_transient_ex(ckt, opts), std::invalid_argument);
}

}  // namespace
