// Mutual inductance: the CoupledInductors element against transformer
// physics and analytic parallel-pin inductance, plus the netlist K card.
#include "circuit/circuit.hpp"
#include "circuit/netlist.hpp"
#include "sim/engine.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using ssnkit::waveform::Dc;
using ssnkit::waveform::Pwl;
using ssnkit::waveform::Waveform;

TEST(CoupledInductors, Validation) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  EXPECT_THROW(ckt.add_coupled_inductors("K1", a, kGround, a, kGround, 0.0,
                                         1e-9, 0.5),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_coupled_inductors("K2", a, kGround, a, kGround, 1e-9,
                                         1e-9, 1.0),
               std::invalid_argument);
  auto& k = ckt.add_coupled_inductors("K3", a, kGround, ckt.node("b"), kGround,
                                      4e-9, 1e-9, 0.5);
  EXPECT_NEAR(k.mutual(), 0.5 * std::sqrt(4e-9 * 1e-9), 1e-18);
}

TEST(CoupledInductors, DcBothWindingsShort) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", in, kGround, Dc{1.0});
  ckt.add_resistor("R1", in, a, 100.0);
  ckt.add_resistor("R2", in, b, 100.0);
  ckt.add_coupled_inductors("K1", a, kGround, b, kGround, 5e-9, 5e-9, 0.6);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "a"), 0.0, 1e-9);
  EXPECT_NEAR(dc.voltage(ckt, "b"), 0.0, 1e-9);
}

TEST(CoupledInductors, OpenSecondaryTransformerVoltage) {
  // Drive the primary with a current ramp dI/dt = 1e6 A/s; the open
  // secondary shows v2 = M * di1/dt.
  Circuit ckt;
  const NodeId p = ckt.node("p");
  const NodeId s = ckt.node("s");
  ckt.add_isource("I1", kGround, p,
                  Pwl{{{0.0, 0.0}, {10e-6, 10.0}}});  // 1e6 A/s ramp
  ckt.add_coupled_inductors("K1", p, kGround, s, kGround, 4e-9, 1e-9, 0.8);
  ckt.add_resistor("Rs", s, kGround, 1e9);  // effectively open

  TransientOptions opts;
  opts.t_stop = 8e-6;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const double m = 0.8 * std::sqrt(4e-9 * 1e-9);
  EXPECT_NEAR(result.waveform("s").sample(5e-6), m * 1e6, 0.03 * m * 1e6);
  // Primary sees L1 * di/dt.
  EXPECT_NEAR(result.waveform("p").sample(5e-6), 4e-9 * 1e6,
              0.03 * 4e-9 * 1e6);
}

class ParallelPinsTest : public ::testing::TestWithParam<Integrator> {};

TEST_P(ParallelPinsTest, CoupledParallelPinsActLikeLPlusMOverTwo) {
  // Two identical inductors in parallel with coupling k behave as
  // L_eff = L(1+k)/2. Compare the RL rise time constant against a single
  // inductor of that value.
  const double l = 5e-9, k = 0.6, r = 10.0;
  const double l_eff = l * (1.0 + k) / 2.0;

  // Each pin gets its own small series resistance (also breaks the DC
  // degeneracy of two shorts across the same node pair); the uncoupled
  // comparator uses the parallel combination.
  const double r_pin = 1.0;
  const auto current_at = [&](bool coupled, double t_probe) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId mid = ckt.node("mid");
    ckt.add_vsource("V1", in, kGround, Pwl{{{0.0, 0.0}, {1e-15, 1.0}}});
    ckt.add_resistor("R1", in, mid, r);
    if (coupled) {
      const NodeId a = ckt.node("a");
      const NodeId b = ckt.node("b");
      ckt.add_resistor("Rp1", mid, a, r_pin);
      ckt.add_resistor("Rp2", mid, b, r_pin);
      ckt.add_coupled_inductors("K1", a, kGround, b, kGround, l, l, k);
    } else {
      const NodeId c = ckt.node("c");
      ckt.add_resistor("Rp", mid, c, r_pin / 2.0);
      ckt.add_inductor("L1", c, kGround, l_eff);
    }
    TransientOptions opts;
    opts.t_stop = 3e-9;
    opts.method = GetParam();
    opts.lte_reltol = 1e-5;
    const TransientResult res =
        testutil::full_device(run_transient_ex(ckt, opts));
    return res.waveform("mid").sample(t_probe);
  };

  for (double t : {0.2e-9, 0.5e-9, 1.5e-9}) {
    EXPECT_NEAR(current_at(true, t), current_at(false, t),
                0.02 * std::fabs(current_at(false, t)) + 1e-4)
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIntegrators, ParallelPinsTest,
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

TEST(CoupledInductors, EnergyTransferOscillates) {
  // A charged LC tank coupled to an identical tank slowly exchanges energy
  // (beat between the split modes) — a qualitative coupling check: the
  // second tank's peak voltage approaches the first one's initial value.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_capacitor("C1", a, kGround, 1e-12, 1.0);  // charged to 1 V
  ckt.add_capacitor("C2", b, kGround, 1e-12, 0.0);
  ckt.add_coupled_inductors("K1", a, kGround, b, kGround, 5e-9, 5e-9, 0.3);

  TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.use_ic = true;
  opts.lte_reltol = 1e-5;
  const TransientResult result =
      testutil::full_device(run_transient_ex(ckt, opts));
  const double peak_b = result.waveform("b").maximum().value;
  EXPECT_GT(peak_b, 0.5);  // substantial energy transferred
  EXPECT_LT(peak_b, 1.05);
}

TEST(CoupledInductors, NetlistKCard) {
  const auto r = parse_netlist_ex(R"(
V1 in 0 DC 1.0
R1 in a 100
R2 in b 100
L1 a 0 5n
L2 b 0 5n
K1 L1 L2 0.7
)");
  ASSERT_TRUE(r.ok) << r.diagnostics.format_all();
  const auto& parsed = r.netlist;
  EXPECT_EQ(parsed.circuit.find_element("L1"), nullptr);  // fused away
  EXPECT_EQ(parsed.circuit.find_element("L2"), nullptr);
  const auto* k =
      dynamic_cast<const CoupledInductors*>(parsed.circuit.find_element("K1"));
  ASSERT_NE(k, nullptr);
  EXPECT_DOUBLE_EQ(k->coupling(), 0.7);
}

TEST(CoupledInductors, NetlistKCardUnknownInductor) {
  EXPECT_FALSE(parse_netlist_ex("L1 a 0 5n\nK1 L1 LX 0.5\n").ok);
}

}  // namespace
