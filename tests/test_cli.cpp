// The command-line front end: argument parser and subcommands.
#include "circuit/testbench.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "io/table.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/atomic_file.hpp"
#include "support/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace {

using namespace ssnkit::cli;

TEST(Args, KeyValueForms) {
  const Args args = Args::parse({"--n", "8", "--tr=0.1n", "pos1", "--flagy"},
                                {"flagy"});
  EXPECT_EQ(args.get_int("n", 0), 8);
  EXPECT_DOUBLE_EQ(args.get_double("tr", 0.0), 0.1e-9);
  EXPECT_TRUE(args.flag("flagy"));
  EXPECT_FALSE(args.flag("other"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, DefaultsAndMissing) {
  const Args args = Args::parse({});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.get_or("tech", "180nm"), "180nm");
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("l", 5e-9), 5e-9);
}

TEST(Args, Malformed) {
  EXPECT_THROW(Args::parse({"--n"}), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--"}), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--verify=1"}, {"verify"}), std::invalid_argument);
  const Args bad_int = Args::parse({"--n", "eight"});
  EXPECT_THROW(bad_int.get_int("n", 0), std::invalid_argument);
}

TEST(Args, SpiceSuffixesInNumbers) {
  const Args args = Args::parse({"--l", "2.5n", "--c", "1p", "--budget", "270m"});
  EXPECT_DOUBLE_EQ(args.get_double("l", 0), 2.5e-9);
  EXPECT_DOUBLE_EQ(args.get_double("c", 0), 1e-12);
  EXPECT_DOUBLE_EQ(args.get_double("budget", 0), 0.27);
}

TEST(Args, UnusedKeysDetected) {
  const Args args = Args::parse({"--n", "8", "--typo", "1"});
  (void)args.get_int("n", 0);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

int run(const std::vector<std::string>& argv, std::string& out,
        std::string& err) {
  std::ostringstream os, es;
  const int rc = run_cli(argv, os, es);
  out = os.str();
  err = es.str();
  return rc;
}

TEST(Cli, HelpAndUnknownCommand) {
  std::string out, err;
  EXPECT_EQ(run({"help"}, out, err), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}, out, err), 2);
}

TEST(Cli, EveryCommandPrintsHelpWithBothSpellings) {
  // `<command> --help` and `<command> -h` print the usage and exit 0; they
  // never run the command (serve would read stdin, estimate would answer).
  std::string out, err;
  for (const char* command :
       {"calibrate", "estimate", "sweep-n", "sweep-c", "design", "mc", "ac",
        "simulate", "serve", "help"}) {
    for (const char* spelling : {"--help", "-h"}) {
      SCOPED_TRACE(std::string(command) + " " + spelling);
      EXPECT_EQ(run({command, spelling}, out, err), 0) << err;
      EXPECT_EQ(out, usage());
      EXPECT_EQ(err, "");
      EXPECT_EQ(run({command, "--n", "4", spelling}, out, err), 0) << err;
      EXPECT_EQ(out, usage());
    }
  }
}

TEST(Cli, Calibrate) {
  std::string out, err;
  ASSERT_EQ(run({"calibrate", "--tech", "180nm"}, out, err), 0) << err;
  EXPECT_NE(out.find("lambda"), std::string::npos);
  EXPECT_NE(out.find("V_x"), std::string::npos);
}

TEST(Cli, EstimateWithAndWithoutC) {
  std::string out, err;
  ASSERT_EQ(run({"estimate", "--n", "8", "--tr", "0.1n"}, out, err), 0) << err;
  EXPECT_NE(out.find("Table 1 case"), std::string::npos);
  ASSERT_EQ(run({"estimate", "--n", "8", "--no-c"}, out, err), 0) << err;
  EXPECT_NE(out.find("Eqn 7"), std::string::npos);
}

TEST(Cli, EstimateVerifyRunsSimulator) {
  std::string out, err;
  ASSERT_EQ(run({"estimate", "--n", "4", "--verify"}, out, err), 0) << err;
  EXPECT_NE(out.find("simulated max SSN"), std::string::npos);
}

// The CLI and serve make the same estimate calls: the CLI's printed V_max
// is serve's value at the CLI's 5 digits, and both carry one verdict.
TEST(Cli, EstimateAgreesWithServe) {
  struct Case {
    std::vector<std::string> argv;
    std::string request;
    std::string vmax_row;  ///< the CLI's label for V_max
  };
  const std::vector<Case> cases = {
      {{"estimate", "--n", "8", "--tr", "0.1n"},
       R"({"cmd":"estimate","n":8,"tr":1e-10})",
       "max SSN (LC model)"},
      {{"estimate", "--n", "8", "--tr", "0.1n", "--no-c"},
       R"({"cmd":"estimate","n":8,"tr":1e-10,"include_c":false})",
       "max SSN (Eqn 7)"},
      {{"estimate", "--n", "4", "--tr", "0.1n", "--verify"},
       R"({"cmd":"estimate","n":4,"tr":1e-10,"sim":true})",
       "max SSN (LC model)"},
  };
  ssnkit::serve::CalibrationCache calibrations;
  for (const Case& c : cases) {
    std::string out, err;
    ASSERT_EQ(run(c.argv, out, err), 0) << err;
    const auto parsed = ssnkit::serve::parse_request(c.request);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto json = ssnkit::serve::parse_json(ssnkit::serve::execute_request(
        parsed.request, calibrations, nullptr));
    ASSERT_TRUE(json.ok) << json.error;
    const double v_max = json.value.find("v_max")->number;
    const std::string verdict =
        json.value.find("trust")->find("verdict")->string;

    std::string row, trust;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      if (line.find(c.vmax_row) != std::string::npos) row = line;
      if (line.rfind("trust: ", 0) == 0) trust = line;
    }
    EXPECT_NE(row.find("| " + ssnkit::io::si_format(v_max, 5) + "V "),
              std::string::npos)
        << row;
    ASSERT_EQ(trust.rfind("trust: ", 0), 0u) << out;
    EXPECT_EQ(trust.substr(7, trust.find_first_of(" ;", 7) - 7), verdict)
        << trust;
  }
}

TEST(Cli, SweepNEmitsCsv) {
  std::string out, err;
  ASSERT_EQ(run({"sweep-n", "--max-n", "4", "--no-c"}, out, err), 0) << err;
  EXPECT_NE(out.find("n,sim,this_work"), std::string::npos);
  // Header + at least 4 rows.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);

  // Interrupted after two points and resumed, the sweep publishes the same
  // full-precision artifact as a clean run.
  const std::string dir = testing::TempDir();
  const std::string journal = dir + "cli_sweep_n_journal.txt";
  const std::string clean = dir + "cli_sweep_n_clean.csv";
  const std::string resumed = dir + "cli_sweep_n_resumed.csv";
  std::remove(journal.c_str());
  const std::vector<std::string> sweep = {"sweep-n", "--max-n", "4", "--no-c"};
  const auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> argv = sweep;
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
  };
  ASSERT_EQ(run(with({"--out", clean}), out, err), 0) << err;
  EXPECT_EQ(run(with({"--max-samples", "2", "--journal", journal}), out, err),
            kExitInterrupted);
  ASSERT_EQ(run(with({"--resume", journal, "--out", resumed}), out, err), 0)
      << err;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string artifact = slurp(clean);
  EXPECT_EQ(artifact.substr(0, artifact.find('\n')),
            "n,sim,this_work,vemuru,song,senthinathan,fidelity");
  EXPECT_EQ(slurp(resumed), artifact);
  for (const auto& p : {journal, clean, resumed}) std::remove(p.c_str());
}

TEST(Cli, ResumeRefusesJournalFromThePerDriverLayout) {
  // A journal written before drivers were folded holds the per-driver
  // circuit's V_max bits, one written before the MOSFETs stamped analytic
  // Jacobians holds the bits of another Newton path (either typically ~1e-8
  // relative away from this build's), and one written before the LU's
  // minimum-degree column order holds differently rounded bits. Resuming
  // from it would splice them into this run. Its configuration hash carries
  // no layout token or an older one, so the resume fails as a mismatch.
  using namespace ssnkit;
  const auto tech = process::tech_180nm();
  const auto pkg = process::package_pga();
  // The CLI defaults: 180nm, alpha golden, PGA package, N = 8, 0.1 ns edge,
  // pad C on, seed 12345.
  const auto config_line = [&](const std::string& layout) {
    const std::string s =
        "mc-sim|" + layout + tech.name + "|alpha|" +
        support::hex_u64(support::double_bits(pkg.inductance)) + "|" +
        support::hex_u64(support::double_bits(pkg.capacitance)) + "|8|" +
        support::hex_u64(support::double_bits(0.1e-9)) + "|c|4|12345";
    return "config " + support::hex_u64(support::fnv1a(s));
  };
  for (const std::string old_layout :
       {"", "folded-drivers|", "folded-drivers+analytic-jacobians|"}) {
    SCOPED_TRACE("layout token '" + old_layout + "'");
    const std::string path = testing::TempDir() + "cli_layout_journal.txt";
    std::remove(path.c_str());
    std::string out, err;
    ASSERT_EQ(run({"mc", "--sim", "--samples", "4", "--journal", path}, out,
                  err),
              0)
        << err;

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    const std::string current =
        config_line(std::string(circuit::kSsnBenchLayout) + "|");
    const auto at = text.find(current);
    ASSERT_NE(at, std::string::npos) << "hash reconstruction is off:\n" << text;
    text.replace(at, current.size(), config_line(old_layout));
    support::write_file_atomic(path, text);

    EXPECT_EQ(run({"mc", "--sim", "--samples", "4", "--resume", path}, out, err),
              1);
    EXPECT_NE((out + err).find("configuration hash mismatch"), std::string::npos)
        << out << err;
    std::remove(path.c_str());
  }
}

TEST(Cli, DesignAnswersQueries) {
  std::string out, err;
  ASSERT_EQ(run({"design", "--budget", "0.3"}, out, err), 0) << err;
  EXPECT_NE(out.find("ground pads needed"), std::string::npos);
  EXPECT_NE(out.find("max simultaneous drivers"), std::string::npos);
}

TEST(Cli, MonteCarloStats) {
  std::string out, err;
  ASSERT_EQ(run({"mc", "--samples", "50"}, out, err), 0) << err;
  EXPECT_NE(out.find("p95"), std::string::npos);
}

TEST(Cli, SweepCEmitsCsv) {
  std::string out, err;
  ASSERT_EQ(run({"sweep-c", "--n", "4"}, out, err), 0) << err;
  EXPECT_NE(out.find("c,zeta,sim,lc_model"), std::string::npos);
}

TEST(Cli, EstimateExtendedReportsTruePeak) {
  std::string out, err;
  ASSERT_EQ(run({"estimate", "--n", "2", "--extended"}, out, err), 0) << err;
  EXPECT_NE(out.find("post-ramp"), std::string::npos);
}

TEST(Cli, AcImpedanceCsv) {
  std::string out, err;
  ASSERT_EQ(run({"ac", "--n", "2", "--ppd", "3"}, out, err), 0) << err;
  EXPECT_NE(out.find("freq,z_mag,z_phase_deg"), std::string::npos);
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Cli, SimulateNetlistFile) {
  const char* path = "cli_test_netlist.cir";
  {
    std::ofstream f(path);
    f << "* tiny rc\n"
         "V1 in 0 PWL(0 0, 1p 1)\n"
         "R1 in out 1k\n"
         "C1 out 0 1p\n"
         ".tran 10p 5n\n";
  }
  std::string out, err;
  ASSERT_EQ(run({"simulate", path, "--probe", "out"}, out, err), 0) << err;
  EXPECT_NE(out.find("v(out)"), std::string::npos);
  ASSERT_EQ(run({"simulate", path}, out, err), 0) << err;  // CSV mode
  EXPECT_NE(out.find("time,"), std::string::npos);
  std::remove(path);
}

TEST(Cli, SimulateErrors) {
  std::string out, err;
  EXPECT_EQ(run({"simulate"}, out, err), 1);
  EXPECT_EQ(run({"simulate", "/no/such/file.cir"}, out, err), 1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(Cli, BadOptionValueFails) {
  std::string out, err;
  EXPECT_EQ(run({"estimate", "--tech", "90nm"}, out, err), 1);
  EXPECT_NE(err.find("unknown technology"), std::string::npos);
  EXPECT_EQ(run({"calibrate", "--golden", "spice"}, out, err), 1);
}

TEST(Cli, NegativeDurationsFail) {
  // A negative duration is an error like --n 0, never a silent "none".
  std::string out, err;
  for (const char* flag : {"--deadline", "--max-wall"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run({"mc", "--samples", "5", flag, "-3"}, out, err), 1);
    EXPECT_NE(err.find(std::string("error: ") + flag), std::string::npos)
        << err;
  }
  // serve fails before it reads a request, so no stdin is needed.
  for (const char* flag :
       {"--drain", "--grace", "--worker-cpu", "--request-deadline"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run({"serve", flag, "-1"}, out, err), 1);
    EXPECT_NE(err.find(std::string("error: ") + flag), std::string::npos)
        << err;
  }
}

TEST(Cli, NegativeSeedFails) {
  // A negative --seed is refused, not wrapped to 4294967295 (a seed that
  // --seed itself refuses as out of range); 0 to INT_MAX still run.
  std::string out, err;
  for (const bool sim : {false, true}) {
    for (const std::string seed : {"-1", "0", "2147483647"}) {
      SCOPED_TRACE(std::string(sim ? "mc --sim" : "mc") + " --seed " + seed);
      std::vector<std::string> argv = {"mc", "--samples", "2", "--seed", seed};
      if (sim) argv.push_back("--sim");
      const bool negative = seed == "-1";
      EXPECT_EQ(run(argv, out, err), negative ? 1 : 0) << err;
      if (negative) {
        EXPECT_NE(err.find("error: --seed"), std::string::npos) << err;
      }
    }
  }
}

TEST(Cli, NegativeThreadsAndWorkersFail) {
  // A negative count is an error at startup, never a silent "auto".
  std::string out, err;
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"sweep-n", "--max-n", "2", "--threads", "-2"},
           {"sweep-c", "--threads", "-2"},
           {"mc", "--samples", "2", "--threads", "-2"},
           {"mc", "--sim", "--samples", "2", "--threads", "-2"},
           {"serve", "--threads", "-2"},
           {"serve", "--isolate", "process", "--workers", "-3"}}) {
    SCOPED_TRACE(argv[0] + " " + argv[argv.size() - 2]);
    EXPECT_EQ(run(argv, out, err), 1);
    EXPECT_NE(err.find("error: " + argv[argv.size() - 2]), std::string::npos)
        << err;
  }
  // 0 still means auto.
  EXPECT_EQ(run({"mc", "--samples", "2", "--threads", "0"}, out, err), 0)
      << err;
}

TEST(Cli, RequestDeadlineBeyondTheWireBoundFails) {
  // The default deadline travels on the worker wire, which carries at most
  // 3600 s: a larger one must fail at startup, not as a per-request E063.
  std::string out, err;
  EXPECT_EQ(run({"serve", "--request-deadline", "3601"}, out, err), 1);
  EXPECT_NE(err.find("error: --request-deadline"), std::string::npos) << err;
}

TEST(Cli, UnrecognizedOptionWarns) {
  std::string out, err;
  ASSERT_EQ(run({"calibrate", "--bogus", "1"}, out, err), 0);
  EXPECT_NE(out.find("unrecognized option --bogus"), std::string::npos);
}

}  // namespace
