// Nonlinear devices in the MNA engine: diode, MOSFET inverter, and the SSN
// testbench end to end.
#include "analysis/measure.hpp"
#include "circuit/circuit.hpp"
#include "circuit/testbench.hpp"
#include "devices/asdm.hpp"
#include "process/technology.hpp"
#include "sim/engine.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using ssnkit::waveform::Dc;
using ssnkit::waveform::Ramp;

TEST(DcNonlinear, DiodeForwardDrop) {
  // 5 V through 1 kOhm into a diode: drop settles near 0.6-0.75 V.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", in, kGround, Dc{5.0});
  ckt.add_resistor("R1", in, a, 1e3);
  ckt.add_diode("D1", a, kGround);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_GT(dc.voltage(ckt, "a"), 0.5);
  EXPECT_LT(dc.voltage(ckt, "a"), 0.85);
  // KCL consistency: diode current equals resistor current.
  const double v = dc.voltage(ckt, "a");
  const double i_r = (5.0 - v) / 1e3;
  const double i_d = 1e-14 * (std::exp(v / 0.025852) - 1.0);
  EXPECT_NEAR(i_d, i_r, 0.02 * i_r);
}

TEST(DcNonlinear, DiodeReverseBlocks) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", in, kGround, Dc{-5.0});
  ckt.add_resistor("R1", in, a, 1e3);
  ckt.add_diode("D1", a, kGround);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "a"), -5.0, 1e-2);
}

class InverterVtc : public ::testing::Test {
 protected:
  // CMOS inverter from the 180 nm golden models.
  double vout_at(double vin) {
    Circuit ckt;
    const auto tech = process::tech_180nm();
    const NodeId n_vdd = ckt.node("vdd");
    const NodeId n_in = ckt.node("in");
    const NodeId n_out = ckt.node("out");
    ckt.add_vsource("Vdd", n_vdd, kGround, Dc{tech.vdd});
    ckt.add_vsource("Vin", n_in, kGround, Dc{vin});
    std::shared_ptr<const devices::MosfetModel> nmos(tech.make_golden());
    std::shared_ptr<const devices::MosfetModel> pmos(tech.make_golden());
    ckt.add_mosfet("Mn", n_out, n_in, kGround, kGround, nmos);
    ckt.add_mosfet("Mp", n_out, n_in, n_vdd, n_vdd, pmos, MosfetPolarity::kPmos);
    const DcResult dc = dc_operating_point(ckt);
    return dc.voltage(ckt, "out");
  }
};

TEST_F(InverterVtc, RailsAndTransition) {
  EXPECT_NEAR(vout_at(0.0), 1.8, 0.02);
  EXPECT_NEAR(vout_at(1.8), 0.0, 0.02);
  const double mid = vout_at(0.9);
  EXPECT_GT(mid, 0.1);
  EXPECT_LT(mid, 1.7);
  // Monotone decreasing VTC.
  double prev = 1.9;
  for (double vin = 0.0; vin <= 1.8; vin += 0.15) {
    const double v = vout_at(vin);
    EXPECT_LE(v, prev + 1e-6) << "vin=" << vin;
    prev = v;
  }
}

TEST(InverterTransient, OutputFallsOnInputRise) {
  Circuit ckt;
  const auto tech = process::tech_180nm();
  const NodeId n_vdd = ckt.node("vdd");
  const NodeId n_in = ckt.node("in");
  const NodeId n_out = ckt.node("out");
  ckt.add_vsource("Vdd", n_vdd, kGround, Dc{tech.vdd});
  ckt.add_vsource("Vin", n_in, kGround, Ramp{0.0, 1.8, 0.1e-9, 0.1e-9});
  std::shared_ptr<const devices::MosfetModel> nmos(tech.make_golden());
  std::shared_ptr<const devices::MosfetModel> pmos(tech.make_golden());
  ckt.add_mosfet("Mn", n_out, n_in, kGround, kGround, nmos);
  ckt.add_mosfet("Mp", n_out, n_in, n_vdd, n_vdd, pmos, MosfetPolarity::kPmos);
  ckt.add_capacitor("Cl", n_out, kGround, 1e-12);

  TransientOptions opts;
  opts.t_stop = 2e-9;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  EXPECT_NEAR(result.waveform("out").sample(0.0), 1.8, 0.02);
  EXPECT_NEAR(result.final_value("out"), 0.0, 0.02);
}

TEST(SsnBench, DcAllOutputsHigh) {
  SsnBenchSpec spec;
  spec.n_drivers = 4;
  SsnBench bench = make_ssn_testbench(spec);
  const DcResult dc = dc_operating_point(bench.circuit);
  for (const auto& out : bench.output_nodes)
    EXPECT_NEAR(dc.voltage(bench.circuit, out), spec.tech.vdd, 0.02) << out;
  EXPECT_NEAR(dc.voltage(bench.circuit, "vssi"), 0.0, 1e-6);
}

TEST(SsnBench, GroundBounceAppearsAndDecays) {
  SsnBenchSpec spec;
  spec.n_drivers = 8;
  spec.input_rise_time = 0.1e-9;
  analysis::MeasureOptions mopts;
  mopts.overshoot_factor = 3.0;
  const auto m = testutil::full_device(analysis::measure_ssn(spec, mopts));
  // A healthy bounce: hundreds of mV but below the rail.
  EXPECT_GT(m.v_max, 0.2);
  EXPECT_LT(m.v_max, spec.tech.vdd);
  EXPECT_GT(m.t_at_max, 0.0);
  EXPECT_LE(m.t_at_max, spec.input_rise_time + 1e-15);
  // Inductor current is substantial and positive at the ramp end.
  EXPECT_GT(m.i_l.maximum().value, 1e-3);
  // Outputs barely moved during the ramp (the paper's assumption).
  EXPECT_GT(m.vout.sample(spec.input_rise_time), 0.8 * spec.tech.vdd);
}

TEST(SsnBench, BounceGrowsWithDriverCount) {
  double prev = 0.0;
  for (int n : {2, 4, 8}) {
    SsnBenchSpec spec;
    spec.n_drivers = n;
    const auto m = testutil::full_device(analysis::measure_ssn(spec));
    EXPECT_GT(m.v_max, prev) << n;
    prev = m.v_max;
  }
}

TEST(SsnBench, AsdmOverrideDeviceRuns) {
  // Replace the golden pull-down with a fitted-style ASDM and simulate:
  // this is the configuration that isolates formula error from fit error.
  SsnBenchSpec spec;
  spec.n_drivers = 8;
  spec.include_pullup = false;
  spec.pulldown_override = std::make_shared<devices::AsdmModel>(
      devices::AsdmParams{.k = 6e-3, .lambda = 1.25, .vx = 0.6});
  const auto m = testutil::full_device(analysis::measure_ssn(spec));
  EXPECT_GT(m.v_max, 0.1);
  EXPECT_LT(m.v_max, spec.tech.vdd);
}

TEST(SsnBench, QuietDriversBarelyChangeBounce) {
  SsnBenchSpec base;
  base.n_drivers = 4;
  const double v_base =
      testutil::full_device(analysis::measure_ssn(base)).v_max;
  SsnBenchSpec with_quiet = base;
  with_quiet.n_quiet = 4;
  const double v_quiet =
      testutil::full_device(analysis::measure_ssn(with_quiet)).v_max;
  EXPECT_NEAR(v_quiet, v_base, 0.1 * v_base);
}

TEST(SsnBench, StaggerReducesPeak) {
  SsnBenchSpec together;
  together.n_drivers = 4;
  together.input_rise_time = 0.1e-9;
  const double v_together =
      testutil::full_device(analysis::measure_ssn(together)).v_max;

  SsnBenchSpec spread = together;
  spread.stagger = {0.0, 100e-12, 200e-12, 300e-12};
  const double v_spread =
      testutil::full_device(analysis::measure_ssn(spread)).v_max;
  EXPECT_LT(v_spread, v_together);
}

TEST(SsnBench, PackageRIsNegligible) {
  // The paper neglects the 10 mOhm resistance; quantify that this is fair.
  SsnBenchSpec no_r;
  no_r.n_drivers = 8;
  const double v0 = testutil::full_device(analysis::measure_ssn(no_r)).v_max;
  SsnBenchSpec with_r = no_r;
  with_r.include_package_r = true;
  const double v1 = testutil::full_device(analysis::measure_ssn(with_r)).v_max;
  EXPECT_NEAR(v1, v0, 0.01 * v0);
}

TEST(Measure, OptionsValidated) {
  SsnBenchSpec spec;
  analysis::MeasureOptions mopts;
  mopts.overshoot_factor = 0.5;
  EXPECT_THROW(analysis::measure_ssn(spec, mopts), std::invalid_argument);
}

}  // namespace
