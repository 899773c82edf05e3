// Small-signal AC analysis against textbook transfer functions.
#include "circuit/circuit.hpp"
#include "circuit/testbench.hpp"
#include "process/technology.hpp"
#include "sim/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using ssnkit::waveform::Dc;

TEST(Ac, OptionsValidation) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  AcOptions opts;
  opts.f_start = 0.0;
  EXPECT_THROW(run_ac(ckt, opts), std::invalid_argument);
  opts = {};
  opts.f_stop = opts.f_start;
  EXPECT_THROW(run_ac(ckt, opts), std::invalid_argument);
  opts = {};
  opts.points_per_decade = 0;
  EXPECT_THROW(run_ac(ckt, opts), std::invalid_argument);
}

TEST(Ac, RcLowPass) {
  // R = 1k, C = 1p: f_c = 1/(2*pi*RC) ~= 159.2 MHz.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  auto& vin = ckt.add_vsource("Vin", in, kGround, Dc{0.0});
  vin.set_ac(1.0);
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, kGround, 1e-12);

  AcOptions opts;
  opts.f_start = 1e6;
  opts.f_stop = 100e9;
  opts.points_per_decade = 40;
  const AcResult res = run_ac(ckt, opts);

  const double fc = 1.0 / (2.0 * M_PI * 1e3 * 1e-12);
  // Interpolate |H| at the nearest grid point to fc.
  std::size_t i_fc = 0;
  for (std::size_t i = 0; i < res.point_count(); ++i)
    if (std::fabs(std::log10(res.frequencies()[i] / fc)) <
        std::fabs(std::log10(res.frequencies()[i_fc] / fc)))
      i_fc = i;
  const auto h = res.value("out", i_fc);
  EXPECT_NEAR(std::abs(h), 1.0 / std::sqrt(2.0), 0.03);
  EXPECT_NEAR(std::arg(h) * 180.0 / M_PI, -45.0, 3.0);
  // Deep stopband rolls off 20 dB/decade.
  const auto db = res.magnitude_db("out");
  const double slope =
      (db.back() - db[db.size() - 1 - std::size_t(opts.points_per_decade)]);
  EXPECT_NEAR(slope, -20.0, 1.0);
  // Passband is flat at 0 dB.
  EXPECT_NEAR(db.front(), 0.0, 0.1);
}

TEST(Ac, SeriesRlcResonance) {
  // Voltage across C peaks near f0 with Q = (1/R)*sqrt(L/C).
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  const NodeId out = ckt.node("out");
  auto& vin = ckt.add_vsource("Vin", in, kGround, Dc{0.0});
  vin.set_ac(1.0);
  ckt.add_resistor("R1", in, mid, 5.0);
  ckt.add_inductor("L1", mid, out, 5e-9);
  ckt.add_capacitor("C1", out, kGround, 1e-12);

  AcOptions opts;
  opts.f_start = 1e8;
  opts.f_stop = 1e11;
  opts.points_per_decade = 200;
  const AcResult res = run_ac(ckt, opts);

  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(5e-9 * 1e-12));
  const double q = std::sqrt(5e-9 / 1e-12) / 5.0;
  const auto peak = res.peak("out");
  EXPECT_NEAR(peak.frequency, f0, 0.03 * f0);
  EXPECT_NEAR(peak.magnitude, q, 0.08 * q);
}

TEST(Ac, GroundPathImpedance) {
  // 1 A AC into L || C from the node: |Z| peaks at the LC resonance.
  Circuit ckt;
  const NodeId vssi = ckt.node("vssi");
  auto& iin = ckt.add_isource("Iac", kGround, vssi, Dc{0.0});
  iin.set_ac(1.0);
  ckt.add_inductor("Lgnd", vssi, kGround, 5e-9);
  ckt.add_capacitor("Cpad", vssi, kGround, 1e-12);
  ckt.add_resistor("Rdamp", vssi, kGround, 1e3);  // finite Q

  AcOptions opts;
  opts.f_start = 1e8;
  opts.f_stop = 1e11;
  opts.points_per_decade = 100;
  const AcResult res = run_ac(ckt, opts);
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(5e-9 * 1e-12));
  const auto peak = res.peak("vssi");
  EXPECT_NEAR(peak.frequency, f0, 0.05 * f0);
  // At the peak, Z = R (parallel resonance).
  EXPECT_NEAR(peak.magnitude, 1e3, 0.05 * 1e3);
  // Inductive region: |Z| ~ omega*L a decade below resonance.
  std::size_t i_low = 0;
  while (res.frequencies()[i_low] < f0 / 10.0) ++i_low;
  const double f_low = res.frequencies()[i_low];
  EXPECT_NEAR(res.magnitude("vssi")[i_low], 2.0 * M_PI * f_low * 5e-9,
              0.1 * 2.0 * M_PI * f_low * 5e-9);
}

std::vector<std::string> element_names(const Circuit& ckt) {
  std::vector<std::string> names;
  for (const auto& el : ckt.elements()) names.push_back(el->name());
  return names;
}

TEST(Ac, GroundProbeBuildsTheDriverBankInOrder) {
  // `ssnkit ac` and bench_ac_impedance print what this circuit answers, so
  // its names and insertion order are part of their output.
  const process::Technology tech = process::tech_180nm();
  const Circuit two = make_ground_probe(tech, process::GoldenKind::kAlphaPower,
                                        5e-9, 1e-12, 2, 1.25);
  EXPECT_EQ(element_names(two),
            (std::vector<std::string>{"Vdd", "Lgnd", "Cpad", "Vin0", "Mn0",
                                      "Rload0", "Cl0", "Vin1", "Mn1", "Rload1",
                                      "Cl1", "Iprobe"}));
  // Without a pad capacitance there is no Cpad.
  const Circuit no_c = make_ground_probe(tech, process::GoldenKind::kBsimLite,
                                         5e-9, 0.0, 1, 1.25);
  EXPECT_EQ(element_names(no_c),
            (std::vector<std::string>{"Vdd", "Lgnd", "Vin0", "Mn0", "Rload0",
                                      "Cl0", "Iprobe"}));
}

TEST(Ac, GroundProbePeaksAtTheTankResonanceWithOneDriver) {
  // One conducting driver barely damps the L-C tank: |Z(vssi)| peaks within
  // 5 % of f0 = 1/(2*pi*sqrt(LC)).
  const process::Technology tech = process::tech_180nm();
  const double l = 5e-9, c = 1e-12;
  Circuit ckt = make_ground_probe(tech, process::GoldenKind::kAlphaPower, l, c,
                                  1, 0.5 * tech.vdd + 0.35);
  AcOptions opts;
  opts.f_start = 2e8;
  opts.f_stop = 2e11;
  opts.points_per_decade = 60;
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(l * c));
  EXPECT_NEAR(run_ac(ckt, opts).peak("vssi").frequency, f0, 0.05 * f0);
}

TEST(Ac, CommonSourceAmplifierGain) {
  // Golden NMOS common-source stage: |A_v| ~= gm*(Rload || ro) at low f,
  // rolling off through the output pole.
  Circuit ckt;
  const auto tech = process::tech_180nm();
  const NodeId vdd = ckt.node("vdd");
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource("Vdd", vdd, kGround, Dc{tech.vdd});
  auto& vin = ckt.add_vsource("Vin", in, kGround, Dc{0.7});  // bias near VT+
  vin.set_ac(1.0);
  std::shared_ptr<const devices::MosfetModel> nmos(tech.make_golden());
  ckt.add_mosfet("M1", out, in, kGround, kGround, nmos);
  ckt.add_resistor("Rload", vdd, out, 150.0);
  ckt.add_capacitor("Cload", out, kGround, 1e-12);

  AcOptions opts;
  opts.f_start = 1e6;
  opts.f_stop = 1e12;
  opts.points_per_decade = 20;
  const AcResult res = run_ac(ckt, opts);

  // Expected low-frequency gain from the model's own small-signal params.
  const DcResult dc = dc_operating_point(ckt);
  const auto eval = nmos->evaluate(0.7, dc.voltage(ckt, "out"), 0.0);
  const double g_load = 1.0 / 150.0 + eval.gds;
  const double expected = eval.gm / g_load;
  EXPECT_NEAR(res.magnitude("out").front(), expected, 0.05 * expected);
  // Phase inversion at low frequency.
  EXPECT_NEAR(std::fabs(res.phase_deg("out").front()), 180.0, 5.0);
  // High-frequency rolloff present.
  EXPECT_LT(res.magnitude("out").back(), 0.2 * expected);
}

TEST(Ac, CoupledInductorsTransformerRatio) {
  // Well above the L/R corner the open-secondary voltage ratio approaches
  // M/L1 = k*sqrt(L2/L1).
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId p = ckt.node("p");
  const NodeId s = ckt.node("s");
  auto& vin = ckt.add_vsource("Vin", in, kGround, Dc{0.0});
  vin.set_ac(1.0);
  // Small series resistance: keeps the DC point non-degenerate (a 0 V
  // source directly across a DC-shorted winding is a redundant constraint).
  ckt.add_resistor("Rp", in, p, 0.1);
  ckt.add_coupled_inductors("K1", p, kGround, s, kGround, 4e-9, 1e-9, 0.8);
  ckt.add_resistor("Rs", s, kGround, 1e6);

  AcOptions opts;
  opts.f_start = 1e9;
  opts.f_stop = 1e10;
  opts.points_per_decade = 5;
  const AcResult res = run_ac(ckt, opts);
  const double ratio = 0.8 * std::sqrt(1e-9 / 4e-9);
  EXPECT_NEAR(res.magnitude("s").back(), ratio, 0.03 * ratio);
}

TEST(Ac, QuietSourcesContributeNothing) {
  // Without any set_ac() excitation the response is identically zero.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", a, kGround, Dc{5.0});
  ckt.add_resistor("R1", a, ckt.node("b"), 1e3);
  ckt.add_capacitor("C1", ckt.node("b"), kGround, 1e-12);
  AcOptions opts;
  opts.points_per_decade = 2;
  const AcResult res = run_ac(ckt, opts);
  for (std::size_t i = 0; i < res.point_count(); ++i)
    EXPECT_EQ(std::abs(res.value("b", i)), 0.0);
}

TEST(Ac, UnknownSignalThrows) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  AcOptions opts;
  opts.points_per_decade = 1;
  const AcResult res = run_ac(ckt, opts);
  EXPECT_THROW(res.magnitude("zzz"), std::out_of_range);
}

}  // namespace
