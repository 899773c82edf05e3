// Tapered driver-chain builder and its qualitative physics.
#include "circuit/driver_chain.hpp"
#include "sim/engine.hpp"
#include "waveform/metrics.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;

TEST(DriverChain, SpecValidation) {
  TaperedDriverSpec spec;
  spec.stages = 0;
  EXPECT_THROW(make_tapered_driver_bench(spec), std::invalid_argument);
  spec = {};
  spec.taper = 1.0;
  EXPECT_THROW(make_tapered_driver_bench(spec), std::invalid_argument);
  spec = {};
  spec.n_drivers = 0;
  EXPECT_THROW(make_tapered_driver_bench(spec), std::invalid_argument);
  spec = {};
  spec.input_rise_time = 0.0;
  EXPECT_THROW(make_tapered_driver_bench(spec), std::invalid_argument);
}

TEST(DriverChain, TopologyShape) {
  TaperedDriverSpec spec;
  spec.n_drivers = 2;
  spec.stages = 3;
  const auto bench = make_tapered_driver_bench(spec);
  EXPECT_EQ(bench.input_nodes.size(), 2u);
  EXPECT_EQ(bench.output_nodes.size(), 2u);
  // 3 stages per driver: Mn/Mp each, inter-stage gate caps, pad loads.
  EXPECT_NE(bench.circuit.find_element("Mn0_0"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Mn1_2"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Cg0_0"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Cl0"), nullptr);
  EXPECT_FALSE(bench.final_gate_node.empty());
}

TEST(DriverChain, DcLevelsAlternateThroughTheChain) {
  // With a 4-stage chain the input starts HIGH (falling edge chosen so the
  // final gate rises): stage outputs alternate low/high/low and the pad
  // starts HIGH.
  TaperedDriverSpec spec;
  spec.n_drivers = 1;
  spec.stages = 4;
  auto bench = make_tapered_driver_bench(spec);
  const auto dc = sim::dc_operating_point(bench.circuit);
  const double vdd = spec.tech.vdd;
  EXPECT_NEAR(dc.voltage(bench.circuit, "in0"), vdd, 0.01);       // input high
  EXPECT_NEAR(dc.voltage(bench.circuit, "n0_0"), 0.0, 0.05);      // inverted
  EXPECT_NEAR(dc.voltage(bench.circuit, "n0_1"), vdd, 0.05);
  EXPECT_NEAR(dc.voltage(bench.circuit, "n0_2"), 0.0, 0.05);      // final gate
  EXPECT_NEAR(dc.voltage(bench.circuit, "out0"), vdd, 0.05);      // pad high
}

TEST(DriverChain, PadDischargesAndGroundBounces) {
  TaperedDriverSpec spec;
  spec.n_drivers = 2;
  spec.stages = 3;
  spec.taper = 3.0;
  auto bench = make_tapered_driver_bench(spec);
  sim::TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.dt_max = 10e-12;
  const auto result =
      testutil::full_device(sim::run_transient_ex(bench.circuit, opts));
  // Pad ends low.
  EXPECT_LT(result.final_value("out0"), 0.2);
  // Ground bounced on the way.
  EXPECT_GT(result.waveform("vssi").maximum().value, 0.05);
}

TEST(DriverChain, EdgeSharpensThroughTheChain) {
  // The whole point of tapering: the final gate's edge is much faster than
  // the 0.3 ns core edge feeding the chain.
  TaperedDriverSpec spec;
  spec.n_drivers = 1;
  spec.stages = 4;
  spec.taper = 2.5;
  auto bench = make_tapered_driver_bench(spec);
  sim::TransientOptions opts;
  opts.t_stop = 2e-9;
  opts.dt_max = 5e-12;
  const auto result =
      testutil::full_device(sim::run_transient_ex(bench.circuit, opts));
  const auto gate = result.waveform(bench.final_gate_node);
  const auto t10 = waveform::first_rising_crossing(gate, 0.1 * spec.tech.vdd);
  const auto t90 = waveform::first_rising_crossing(gate, 0.9 * spec.tech.vdd);
  ASSERT_TRUE(t10 && t90);
  EXPECT_LT(*t90 - *t10, spec.input_rise_time);
}

TEST(DriverChain, NoisyPredriverGroundSelfThrottles) {
  const auto vmax_with = [](bool noisy_predrivers) {
    TaperedDriverSpec spec;
    spec.n_drivers = 4;
    spec.stages = 4;
    spec.predrivers_on_noisy_ground = noisy_predrivers;
    auto bench = make_tapered_driver_bench(spec);
    sim::TransientOptions opts;
    opts.t_stop = 2e-9;
    opts.dt_max = 10e-12;
    return testutil::full_device(sim::run_transient_ex(bench.circuit, opts))
        .waveform("vssi")
        .maximum()
        .value;
  };
  // Counter-intuitive but real: pre-drivers returning through the noisy
  // I/O ground are slowed by the very bounce they help create (their
  // pull-downs lose overdrive), which softens the final gate's edge —
  // negative feedback. Moving them to a quiet core ground removes that
  // throttle and the peak bounce INCREASES.
  const double v_noisy = vmax_with(true);
  const double v_quiet = vmax_with(false);
  EXPECT_GT(v_quiet, v_noisy);
  // Both remain physical (well under the rail).
  EXPECT_LT(v_quiet, 1.5);
}

}  // namespace
