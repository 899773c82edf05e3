// Input-boundary hardening tests: error-recovery parse diagnostics
// (line/column/caret), semantic validation, resource guards, the hardened
// number parsers, the CSV writer's IO errors and the CLI argument parser.
// The malformed-netlist fixtures live in tests/data/bad_netlists; their
// golden diagnostic renderings sit next to them as *.expected.
#include "circuit/netlist.hpp"
#include "circuit/validate.hpp"
#include "cli/args.hpp"
#include "io/csv.hpp"
#include "io/diagnostics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace {

using ssnkit::circuit::Circuit;
using ssnkit::circuit::parse_netlist_ex;
using ssnkit::circuit::parse_spice_number_ex;
using ssnkit::circuit::ParseOptions;
using ssnkit::io::Diagnostic;
using ssnkit::io::DiagnosticSink;
using ssnkit::io::IoError;
using ssnkit::io::ParseError;
using ssnkit::io::Severity;

std::string data_path(const std::string& rel) {
  return std::string(SSNKIT_TEST_DATA_DIR) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(bool(in)) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const Diagnostic* find_code(const DiagnosticSink& sink,
                            const std::string& code) {
  for (const auto& d : sink.diagnostics())
    if (d.code == code) return &d;
  return nullptr;
}

// --- structured diagnostics -------------------------------------------------

TEST(Hardening, MultiErrorNetlistCollectsAllInOnePass) {
  ParseOptions opts;
  opts.filename = "multi_error.cir";
  const auto result =
      parse_netlist_ex(read_file(data_path("bad_netlists/multi_error.cir")), opts);
  EXPECT_FALSE(result.ok);
  ASSERT_GE(result.diagnostics.error_count(), 3u);

  // Three distinct errors, each with the right line and column.
  const Diagnostic* suffix = find_code(result.diagnostics, "SSN-E002");
  ASSERT_NE(suffix, nullptr);
  EXPECT_EQ(suffix->loc.line, 3);
  EXPECT_EQ(suffix->loc.column, 10);
  EXPECT_EQ(suffix->token, "1q");

  const Diagnostic* unknown = find_code(result.diagnostics, "SSN-E011");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->loc.line, 4);
  EXPECT_EQ(unknown->loc.column, 1);

  const Diagnostic* number = find_code(result.diagnostics, "SSN-E001");
  ASSERT_NE(number, nullptr);
  EXPECT_EQ(number->loc.line, 5);
  EXPECT_EQ(number->loc.column, 10);

  // Golden rendering: file:line:col, severity, code and caret excerpts.
  const std::string golden =
      read_file(data_path("bad_netlists/multi_error.expected"));
  EXPECT_EQ(result.diagnostics.format_all(), golden);
}

TEST(Hardening, CaretExcerptUnderlinesTheToken) {
  const auto result = parse_netlist_ex("R1 a 0 1q\n");
  ASSERT_TRUE(result.diagnostics.has_errors());
  const std::string rendered = result.diagnostics.diagnostics()[0].format();
  EXPECT_NE(rendered.find("R1 a 0 1q"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
  EXPECT_NE(rendered.find(":1:8:"), std::string::npos);
}

TEST(Hardening, ThrowingWrapperStaysInvalidArgumentCompatible) {
  const auto result = parse_netlist_ex("R1 a 0 1k\nC1 a 0 oops\nQ9 x\n");
  EXPECT_FALSE(result.ok);
  // The ParseError the CLI throws for a rejected netlist carries every
  // diagnostic and stays catchable as std::invalid_argument.
  static_assert(std::is_base_of_v<std::invalid_argument, ParseError>);
  const ParseError e(result.diagnostics);
  EXPECT_GE(e.diagnostics().size(), 2u);
  EXPECT_NE(std::string(e.what()).find("error"), std::string::npos);
}

TEST(Hardening, KCardSelfCouplingIsDiagnosed) {
  const auto result =
      parse_netlist_ex("K1 L1 L1 0.5\nL1 a 0 1n\nR1 a 0 50\n");
  EXPECT_FALSE(result.ok);
  const Diagnostic* d = find_code(result.diagnostics, "SSN-E021");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("itself"), std::string::npos);
}

TEST(Hardening, SinkDeduplicatesAndCaps) {
  DiagnosticSink sink(4);
  for (int i = 0; i < 10; ++i)
    sink.error({"f", 1, 1}, "SSN-E001", "same message");
  EXPECT_EQ(sink.error_count(), 1u);  // deduplicated
  for (int i = 0; i < 10; ++i)
    sink.error({"f", i + 2, 1}, "SSN-E001", "message " + std::to_string(i));
  EXPECT_TRUE(sink.overflowed());
  EXPECT_LE(sink.error_count(), 5u);  // cap + the overflow note
}

// --- resource guards --------------------------------------------------------

TEST(Hardening, HundredDeepSubcktNestIsRejectedNotOverflowed) {
  std::string text;
  text += ".subckt s0 a b\nR1 a b 1k\n.ends\n";
  for (int i = 1; i < 100; ++i) {
    text += ".subckt s" + std::to_string(i) + " a b\n";
    text += "X1 a b S" + std::to_string(i - 1) + "\n.ends\n";
  }
  text += "X0 p q S99\n";
  const auto result = parse_netlist_ex(text);
  EXPECT_FALSE(result.ok);
  ASSERT_NE(find_code(result.diagnostics, "SSN-E030"), nullptr);
}

TEST(Hardening, RecursiveSubcktIsRejectedNotOverflowed) {
  const auto result = parse_netlist_ex(
      ".subckt loop a b\nX1 a b LOOP\n.ends\nX0 p q LOOP\n");
  EXPECT_FALSE(result.ok);
  ASSERT_NE(find_code(result.diagnostics, "SSN-E030"), nullptr);
}

TEST(Hardening, OversizeInputIsRejectedTyped) {
  ParseOptions opts;
  opts.limits.max_input_bytes = 1024;
  const std::string big(4096, 'x');
  const auto result = parse_netlist_ex(big, opts);
  EXPECT_FALSE(result.ok);
  const Diagnostic* d = find_code(result.diagnostics, "SSN-E030");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("byte limit"), std::string::npos);
}

TEST(Hardening, SubcktDoublingBombHitsElementBudget) {
  // Each level instantiates the previous one twice: 2^20 resistors if the
  // expansion were allowed to run.
  std::string text = ".subckt s0 a b\nR1 a b 1k\nR2 a b 1k\n.ends\n";
  for (int i = 1; i < 20; ++i) {
    text += ".subckt s" + std::to_string(i) + " a b\n";
    text += "X1 a b S" + std::to_string(i - 1) + "\n";
    text += "X2 a b S" + std::to_string(i - 1) + "\n.ends\n";
  }
  text += "X0 p q S19\n";
  ParseOptions opts;
  opts.limits.max_elements = 1000;
  const auto result = parse_netlist_ex(text, opts);
  EXPECT_FALSE(result.ok);
  const Diagnostic* d = find_code(result.diagnostics, "SSN-E030");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("element budget"), std::string::npos);
  // The abort fired at the budget, not after expanding the full million.
  EXPECT_LE(result.netlist.circuit.elements().size(), 1001u);
}

TEST(Hardening, LineAndTokenLengthGuards) {
  ParseOptions opts;
  opts.limits.max_line_length = 64;
  auto result = parse_netlist_ex("R1 a 0 " + std::string(100, '1') + "\n", opts);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(find_code(result.diagnostics, "SSN-E030"), nullptr);

  ParseOptions topts;
  topts.limits.max_token_length = 16;
  result = parse_netlist_ex("R" + std::string(32, 'a') + " a 0 1k\n", topts);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(find_code(result.diagnostics, "SSN-E030"), nullptr);
}

// --- hardened number parsing ------------------------------------------------

TEST(Hardening, SpiceNumberRejectsNonDecimalForms) {
  for (const char* bad : {"inf", "INF", "-inf", "nan", "NAN", "0x10", "0x1p3",
                          "1e999", "-1e999", "", "+", "-", ".", "e3", "1e",
                          " 1.5", "1..5"}) {
    const auto p = parse_spice_number_ex(bad);
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_FALSE(p.error.empty()) << bad;
  }
}

TEST(Hardening, SpiceNumberStillAcceptsTheSpiceDialect) {
  const std::pair<const char*, double> cases[] = {
      {"1.5k", 1500.0}, {"2MEG", 2e6},     {"10pF", 1e-11},
      {"-3e-9", -3e-9}, {"+.5e+2", 50.0}, {"3.3V", 3.3}};
  for (const auto& [token, value] : cases) {
    const auto p = parse_spice_number_ex(token);
    ASSERT_TRUE(p.ok) << token << ": " << p.error;
    EXPECT_DOUBLE_EQ(p.value, value) << token;
  }
}

TEST(Hardening, OutOfRangeIsDiagnosedNotLeaked) {
  // std::stod would throw std::out_of_range here; the hardened parser
  // reports it as a parse failure instead.
  const auto p = parse_spice_number_ex("1e999");
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("out of range"), std::string::npos);

  const auto ip = ssnkit::io::parse_int_strict("99999999999999999999");
  EXPECT_FALSE(ip.ok);
  EXPECT_NE(ip.error.find("out of range"), std::string::npos);
}

// --- semantic validation ----------------------------------------------------

TEST(Hardening, ValidationWarnsOnDanglingNodeAndInductorLoop) {
  const auto result = parse_netlist_ex(
      "V1 a 0 DC 1\nL1 a b 1n\nL2 a b 1n\nR1 b 0 50\nC9 c 0 1p\n");
  EXPECT_TRUE(result.ok);  // warnings only
  const Diagnostic* dangling = find_code(result.diagnostics, "SSN-W102");
  ASSERT_NE(dangling, nullptr);
  EXPECT_NE(dangling->message.find("'c'"), std::string::npos);
  ASSERT_NE(find_code(result.diagnostics, "SSN-W104"), nullptr);
}

TEST(Hardening, UnitSanityWarnsOnOneFaradBondWire) {
  const auto result =
      parse_netlist_ex("V1 a 0 DC 1\nR1 a b 50\nC1 b 0 1\n");
  EXPECT_TRUE(result.ok);
  const Diagnostic* w = find_code(result.diagnostics, "SSN-W106");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->token, "C1");
}

TEST(Hardening, ValidateCircuitWorksOnProgrammaticCircuits) {
  using ssnkit::circuit::validate_circuit;
  Circuit empty;
  DiagnosticSink sink;
  EXPECT_FALSE(validate_circuit(empty, sink));
  EXPECT_NE(find_code(sink, "SSN-E105"), nullptr);

  // The factories already reject non-physical values (contracts), so a
  // programmatic circuit's findings are the topology-level ones: here a
  // node touched by only one terminal.
  Circuit c;
  const auto a = c.node("a");
  const auto b = c.node("b");
  c.add_vsource("V1", a, ssnkit::circuit::kGround, ssnkit::waveform::Dc{1.0});
  c.add_resistor("R1", a, b, 50.0);
  DiagnosticSink sink2;
  EXPECT_TRUE(validate_circuit(c, sink2));  // warnings do not fail validation
  const Diagnostic* d = find_code(sink2, "SSN-W102");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'b'"), std::string::npos);
}

TEST(Hardening, BadModelParametersAreRangeChecked) {
  const auto result = parse_netlist_ex(
      ".model bad ASDM K=-5.8m LAMBDA=1.28 VX=1.4\n"
      "V1 d 0 DC 3.3\nM1 d g 0 0 bad\nR1 g 0 1k\n");
  EXPECT_FALSE(result.ok);
  ASSERT_NE(find_code(result.diagnostics, "SSN-E103"), nullptr);
}

// --- CSV writer IO errors --------------------------------------------------

TEST(Hardening, CsvWriterReportsFailedStreamAsTypedIoError) {
  ssnkit::io::CsvWriter w({"x"});
  w.add_row({1.0});
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  try {
    w.write(os);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoError::Kind::kWriteFailed);
  }
}

TEST(Hardening, CsvFileErrorsAreTyped) {
  ssnkit::io::CsvWriter w({"x"});
  EXPECT_THROW(w.write_file("/no/such/dir/x.csv"), IoError);
  // Disk-full reporting, where the platform provides /dev/full.
  std::ifstream devfull("/dev/full");
  if (devfull.good()) {
    try {
      w.add_row({1.0});
      w.write_file("/dev/full");
      FAIL() << "expected IoError on /dev/full";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoError::Kind::kWriteFailed);
    }
  }
}

// --- CLI argument parsing ---------------------------------------------------

TEST(Hardening, ArgsCollectsEveryErrorWithColumns) {
  using ssnkit::cli::Args;
  DiagnosticSink sink;
  Args::parse_ex({"--", "--verify=1", "--n"}, {"verify"}, sink);
  EXPECT_EQ(sink.error_count(), 3u);
  const auto& diags = sink.diagnostics();
  EXPECT_EQ(diags[0].loc.file, "<command-line>");
  EXPECT_EQ(diags[0].loc.column, 1);
  EXPECT_EQ(diags[1].loc.column, 4);
  EXPECT_EQ(diags[2].loc.column, 15);
  EXPECT_EQ(diags[0].excerpt, "-- --verify=1 --n");
}

TEST(Hardening, ArgsIntOverflowIsInvalidArgumentNotOutOfRange) {
  using ssnkit::cli::Args;
  const Args args = Args::parse({"--n", "99999999999999999999"});
  try {
    args.get_int("n", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

}  // namespace
