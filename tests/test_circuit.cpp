// Circuit construction, node management, and the netlist front end.
#include "circuit/circuit.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace {

using namespace ssnkit::circuit;

/// Parse a netlist the test expects to be clean.
ParsedNetlist parse_ok(const std::string& text) {
  NetlistParseResult r = parse_netlist_ex(text);
  EXPECT_TRUE(r.ok) << r.diagnostics.format_all();
  return std::move(r.netlist);
}

bool parses(const std::string& text) { return parse_netlist_ex(text).ok; }

/// Parse a SPICE number the test expects to be well formed.
double spice_number(const std::string& token) {
  const auto p = parse_spice_number_ex(token);
  EXPECT_TRUE(p.ok) << token << ": " << p.error;
  return p.value;
}

TEST(Circuit, GroundAliases) {
  Circuit ckt;
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
}

TEST(Circuit, NodeCreationAndLookup) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  EXPECT_EQ(ckt.node("a"), a);  // idempotent
  EXPECT_EQ(ckt.find_node("a"), a);
  EXPECT_THROW(ckt.find_node("b"), std::out_of_range);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_EQ(ckt.node_count(), 2);
}

TEST(Circuit, DuplicateElementNameThrows) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  EXPECT_THROW(ckt.add_resistor("R1", ckt.node("b"), kGround, 1e3),
               std::invalid_argument);
}

TEST(Circuit, FinalizeAssignsBranches) {
  Circuit ckt;
  ckt.add_resistor("R1", ckt.node("a"), kGround, 1e3);
  ckt.add_vsource("V1", ckt.node("a"), kGround, ssnkit::waveform::Dc{1.0});
  ckt.add_inductor("L1", ckt.node("a"), ckt.node("b"), 1e-9);
  const int unknowns = ckt.finalize();
  EXPECT_EQ(ckt.branch_count(), 2);      // V1 + L1
  EXPECT_EQ(unknowns, 2 + 2);            // nodes a,b + two branches
  const Element* v1 = ckt.find_element("V1");
  ASSERT_NE(v1, nullptr);
  EXPECT_GE(ckt.branch_unknown_index(*v1), 2);
  const Element* r1 = ckt.find_element("R1");
  EXPECT_THROW(ckt.branch_unknown_index(*r1), std::invalid_argument);
}

TEST(Circuit, ElementParameterValidation) {
  Circuit ckt;
  EXPECT_THROW(ckt.add_resistor("R1", ckt.node("a"), kGround, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_capacitor("C1", ckt.node("a"), kGround, -1e-12),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_inductor("L1", ckt.node("a"), kGround, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.add_mosfet("M1", 1, 1, 0, 0, nullptr), std::invalid_argument);
}

// --- SPICE numbers -----------------------------------------------------------

TEST(SpiceNumber, SuffixScales) {
  EXPECT_DOUBLE_EQ(spice_number("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(spice_number("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(spice_number("3.3u"), 3.3e-6);
  EXPECT_DOUBLE_EQ(spice_number("10m"), 10e-3);
  EXPECT_DOUBLE_EQ(spice_number("1k"), 1e3);
  EXPECT_DOUBLE_EQ(spice_number("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(spice_number("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(spice_number("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(spice_number("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(spice_number("-3e-9"), -3e-9);
}

TEST(SpiceNumber, UnitNamesTolerated) {
  EXPECT_DOUBLE_EQ(spice_number("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(spice_number("5nH"), 5e-9);
  EXPECT_DOUBLE_EQ(spice_number("2V"), 2.0);
}

TEST(SpiceNumber, MalformedThrows) {
  EXPECT_FALSE(parse_spice_number_ex("").ok);
  EXPECT_FALSE(parse_spice_number_ex("abc").ok);
  EXPECT_FALSE(parse_spice_number_ex("1.5q").ok);
}

// --- netlist -----------------------------------------------------------------

TEST(Netlist, ParsesRlcDivider) {
  const auto parsed = parse_ok(R"(simple divider
V1 in 0 DC 2.0
R1 in out 1k
R2 out 0 1k
C1 out 0 10p
.tran 1p 1n
.end
)");
  EXPECT_EQ(parsed.title, "simple divider");
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_DOUBLE_EQ(parsed.tran->tstep, 1e-12);
  EXPECT_DOUBLE_EQ(parsed.tran->tstop, 1e-9);
  EXPECT_NO_THROW(parsed.circuit.find_node("in"));
  EXPECT_NO_THROW(parsed.circuit.find_node("out"));
  EXPECT_NE(parsed.circuit.find_element("C1"), nullptr);
}

TEST(Netlist, ParsesSourceShapes) {
  const auto parsed = parse_ok(R"(
V1 a 0 RAMP(0 1.8 0 0.1n)
V2 b 0 PULSE(0 1 0 10p 10p 1n 2n)
V3 c 0 PWL(0 0, 1n 1, 2n 0)
V4 d 0 SIN(0 1 1g)
V5 e 0 1.8
I1 f 0 DC 1m
)");
  const auto* v1 = dynamic_cast<const VoltageSource*>(parsed.circuit.find_element("V1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_TRUE(std::holds_alternative<ssnkit::waveform::Ramp>(v1->spec()));
  const auto* v5 = dynamic_cast<const VoltageSource*>(parsed.circuit.find_element("V5"));
  ASSERT_NE(v5, nullptr);
  EXPECT_TRUE(std::holds_alternative<ssnkit::waveform::Dc>(v5->spec()));
  EXPECT_NE(parsed.circuit.find_element("I1"), nullptr);
}

TEST(Netlist, ParsesDevicesAndModels) {
  const auto parsed = parse_ok(R"(
.model NDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 GAMMA=0.35
.model PDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=5m VD0=0.9 PMOS
.model LIN ASDM K=5.8m LAMBDA=1.28 VX=0.61
M1 out in vssi 0 NDRV W=2
M2 out in vdd vdd PDRV
M3 out2 in vssi 0 LIN
D1 0 vssi IS=1e-14 N=1
C1 out 0 10p IC=1.8
L1 vssi 0 5n
)");
  EXPECT_NE(parsed.circuit.find_element("M1"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("M2"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("D1"), nullptr);
  const auto* c1 = dynamic_cast<const Capacitor*>(parsed.circuit.find_element("C1"));
  ASSERT_NE(c1, nullptr);
  ASSERT_TRUE(c1->initial_condition().has_value());
  EXPECT_DOUBLE_EQ(*c1->initial_condition(), 1.8);
}

TEST(Netlist, CommentsAndBlanksIgnored) {
  const auto parsed = parse_ok(R"(* a title comment
* full comment
R1 a 0 1k ; trailing comment
R2 a 0 2k // another
)");
  EXPECT_NE(parsed.circuit.find_element("R1"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("R2"), nullptr);
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  const auto r = parse_netlist_ex("R1 a 0 1k\nQ1 a b c\n");
  EXPECT_FALSE(r.ok);
  // Diagnostics render as file:line:column.
  EXPECT_NE(r.diagnostics.format_all().find(":2:"), std::string::npos);
}

TEST(Netlist, UnknownModelThrows) {
  EXPECT_FALSE(parses("M1 d g s 0 NOPE\n"));
}

TEST(Netlist, MissingFieldsThrow) {
  EXPECT_FALSE(parses("R1 a 0\n"));
  EXPECT_FALSE(parses("V1 a 0 RAMP(0 1)\n"));
  EXPECT_FALSE(parses(".tran 1p\n"));
}

// --- testbench ----------------------------------------------------------------

TEST(Testbench, BuildsExpectedTopology) {
  // Four identical drivers fold into one driver named after driver 0; each
  // driver still has its own probe entry, all naming that driver's nodes.
  SsnBenchSpec spec;
  spec.n_drivers = 4;
  const SsnBench bench = make_ssn_testbench(spec);
  EXPECT_EQ(bench.input_nodes.size(), 4u);
  EXPECT_EQ(bench.output_nodes.size(), 4u);
  for (const auto& out : bench.output_nodes) EXPECT_EQ(out, "out0");
  for (const auto& in : bench.input_nodes) EXPECT_EQ(in, "in0");
  EXPECT_NO_THROW(bench.circuit.find_node("vssi"));
  EXPECT_NE(bench.circuit.find_element("Lgnd"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Cpad"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Mn0"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Mp0"), nullptr);
  EXPECT_EQ(bench.circuit.find_element("Mp3"), nullptr);
  EXPECT_THROW(bench.circuit.find_node("out3"), std::out_of_range);
  EXPECT_DOUBLE_EQ(bench.t_ramp_end, spec.input_rise_time);
  EXPECT_NEAR(bench.slope, spec.tech.vdd / spec.input_rise_time, 1e-3);
}

TEST(Testbench, OptionsChangeTopology) {
  SsnBenchSpec spec;
  spec.n_drivers = 2;
  spec.include_package_c = false;
  spec.include_pullup = false;
  spec.include_package_r = true;
  const SsnBench bench = make_ssn_testbench(spec);
  EXPECT_EQ(bench.circuit.find_element("Cpad"), nullptr);
  EXPECT_EQ(bench.circuit.find_element("Mp0"), nullptr);
  EXPECT_NE(bench.circuit.find_element("Rgnd"), nullptr);
}

TEST(Testbench, QuietDriversAndStagger) {
  SsnBenchSpec spec;
  spec.n_drivers = 2;
  spec.n_quiet = 1;
  spec.stagger = {0.0, 50e-12};
  const SsnBench bench = make_ssn_testbench(spec);
  EXPECT_EQ(bench.input_nodes.size(), 3u);
  EXPECT_NEAR(bench.t_ramp_end, 50e-12 + spec.input_rise_time, 1e-18);
}

TEST(Testbench, SpecValidation) {
  SsnBenchSpec spec;
  spec.n_drivers = 0;
  EXPECT_THROW(make_ssn_testbench(spec), std::invalid_argument);
  spec = {};
  spec.input_rise_time = 0.0;
  EXPECT_THROW(make_ssn_testbench(spec), std::invalid_argument);
  spec = {};
  spec.stagger = {1e-12};  // wrong length for 8 drivers
  EXPECT_THROW(make_ssn_testbench(spec), std::invalid_argument);
}


TEST(Netlist, SubcircuitExpansion) {
  const auto parsed = parse_ok(R"(* subckt demo
.subckt RCDIV in out
R1 in out 1k
R2 out 0 1k
C1 out 0 1p
.ends
V1 top 0 DC 2.0
X1 top mid RCDIV
X2 mid bot RCDIV
Rload bot 0 1meg
)");
  // Expanded names are prefixed with the instance.
  EXPECT_NE(parsed.circuit.find_element("X1.R1"), nullptr);
  EXPECT_NE(parsed.circuit.find_element("X2.C1"), nullptr);
  EXPECT_EQ(parsed.circuit.find_element("R1"), nullptr);
  // Ports connect across instances: X1's "out" is the global "mid".
  EXPECT_NO_THROW(parsed.circuit.find_node("mid"));
  EXPECT_THROW(parsed.circuit.find_node("X1.out"), std::out_of_range);
}

TEST(Netlist, SubcircuitDcSolvesCorrectly) {
  auto parsed = parse_ok(R"(
.subckt HALVER in out
Ra in out 1k
Rb out 0 1k
.ends
V1 a 0 DC 4.0
X1 a b HALVER
)");
  const auto dc = ssnkit::sim::dc_operating_point(parsed.circuit);
  EXPECT_NEAR(dc.voltage(parsed.circuit, "b"), 2.0, 1e-9);
}

TEST(Netlist, NestedSubcircuits) {
  auto parsed = parse_ok(R"(
.subckt UNIT a b
Ru a b 100
.ends
.subckt PAIR x y
X1 x m UNIT
X2 m y UNIT
.ends
V1 p 0 DC 1.0
Xtop p q PAIR
Rq q 0 200
)");
  // 200 Ohm of subcircuit resistance + 200 load: q = 0.5 V.
  const auto dc = ssnkit::sim::dc_operating_point(parsed.circuit);
  EXPECT_NEAR(dc.voltage(parsed.circuit, "q"), 0.5, 1e-9);
  EXPECT_NE(parsed.circuit.find_element("Xtop.X1.Ru"), nullptr);
}

TEST(Netlist, SubcircuitErrors) {
  EXPECT_FALSE(parses("X1 a b NOPE\n"));
  EXPECT_FALSE(parses(".subckt A x\nR1 x 0 1k\n"));  // unterminated
  EXPECT_FALSE(parses(".ends\n"));
  // Port count mismatch.
  EXPECT_FALSE(parses(".subckt A x\nR1 x 0 1k\n.ends\nX1 a b A\n"));
  // Self-recursive subcircuit trips the depth limit.
  EXPECT_FALSE(parses(".subckt A x\nX1 x A\n.ends\nX1 a A\n"));
}

TEST(Netlist, GroundIsGlobalInsideSubcircuits) {
  auto parsed = parse_ok(R"(
.subckt TIE a
Rt a 0 50
.ends
V1 n 0 DC 1.0
X1 n TIE
)");
  const auto dc = ssnkit::sim::dc_operating_point(parsed.circuit);
  // The subcircuit's "0" is the real ground: current flows, V1 sees 20 mA.
  const auto* v1 =
      dynamic_cast<const VoltageSource*>(parsed.circuit.find_element("V1"));
  ASSERT_NE(v1, nullptr);
  const int idx = parsed.circuit.branch_unknown_index(*v1);
  EXPECT_NEAR(dc.solution[std::size_t(idx)], -1.0 / 50.0, 1e-9);
}

TEST(Netlist, MalformedInputsThrowNotCrash) {
  // A grab-bag of malformed netlists: every one must be rejected (never
  // crash, never silently succeed).
  const char* cases[] = {
      "R1\n",
      "R1 a\n",
      "Rname a 0 notanumber\n",
      "C1 a 0 1p IC\n",
      "C1 a 0 1p IC=\n",
      "V1 a 0 PULSE(1 2 3)\n",
      "V1 a 0 SIN()\n",
      "M1 d g s b\n",
      "K1 L1\n",
      "X1\n",
      ".model\n",
      ".model FOO\n",
      ".model FOO WEIRD\n",
      ".model FOO ASDM K=\n",
      ".tran\n",
      ".bogus directive\n",
      ".subckt\n",
      ".subckt ONLYNAME\n",
      "L1 a 0 5n\nK1 L1 L1 0.5\nK2 L1 LX 0.5\n",
  };
  for (const char* text : cases) {
    EXPECT_FALSE(parses(text)) << text;
  }
}

TEST(Netlist, DegenerateButValidInputs) {
  // Things that look odd but are legal.
  EXPECT_TRUE(parses(""));
  EXPECT_TRUE(parses("\n\n\n"));
  EXPECT_TRUE(parses("* only a comment\n"));
  EXPECT_TRUE(parses("just a title line\n"));
  // Binary garbage on the first line is (by SPICE convention) the title.
  EXPECT_TRUE(parses("\x01\x02 binary garbage\n.tran 1p 1n\n"));
  EXPECT_TRUE(parses(".end\n"));
  // Cards after .end are ignored.
  const auto parsed = parse_ok("R1 a 0 1k\n.end\nR2 a 0 1k\n");
  EXPECT_NE(parsed.circuit.find_element("R1"), nullptr);
  EXPECT_EQ(parsed.circuit.find_element("R2"), nullptr);
}

}  // namespace
