#include "cli/commands.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/design.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/sweeps.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "core/lc_model.hpp"
#include "waveform/render.hpp"
#include "support/atomic_file.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "sim/ac.hpp"
#include "sim/engine.hpp"
#include "sim/recovery.hpp"
#include "support/faultinject.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <mutex>
#include <ostream>
#include <sstream>

namespace ssnkit::cli {

namespace {

process::GoldenKind golden_from(const Args& args) {
  const std::string g = args.get_or("golden", "alpha");
  if (g == "alpha") return process::GoldenKind::kAlphaPower;
  if (g == "bsim") return process::GoldenKind::kBsimLite;
  throw std::invalid_argument("--golden must be 'alpha' or 'bsim'");
}

process::Technology tech_from(const Args& args) {
  return process::technology_by_name(args.get_or("tech", "180nm"));
}

process::Package package_from(const Args& args) {
  process::Package pkg = process::package_by_name(args.get_or("package", "pga"));
  const int pads = args.get_int("pads", 1);
  if (pads > 1) pkg = pkg.with_ground_pads(pads);
  if (args.has("l")) pkg.inductance = args.get_double("l", pkg.inductance);
  if (args.has("c")) pkg.capacitance = args.get_double("c", pkg.capacitance);
  return pkg;
}

void warn_unused(const Args& args, std::ostream& os) {
  for (const auto& key : args.unused_keys())
    os << "warning: unrecognized option --" << key << "\n";
}

// --- job lifecycle wiring ---------------------------------------------------

/// A duration flag in seconds, `fallback` when absent. A negative (or NaN)
/// value is an error, like --n 0, never a silent "none".
double duration_flag(const Args& args, const std::string& key,
                     double fallback) {
  const double seconds = args.get_double(key, fallback);
  if (!(seconds >= 0.0))
    throw std::invalid_argument("--" + key + " must be >= 0 (seconds)");
  return seconds;
}

/// A count flag (--threads, --workers), `fallback` when absent. 0 means
/// auto; a negative count is an error, never a silent "auto".
int count_flag(const Args& args, const std::string& key, int fallback) {
  const int count = args.get_int(key, fallback);
  if (count < 0)
    throw std::invalid_argument("--" + key + " must be >= 0 (0 = auto)");
  return count;
}

/// --seed, 12345 when absent, in [0, serve::kMaxSeed] like serve's "seed":
/// get_int refuses anything above INT_MAX, and a negative seed is an error
/// (it would wrap to an unsigned seed above INT_MAX).
static_assert(serve::kMaxSeed == std::numeric_limits<int>::max());
unsigned seed_flag(const Args& args) {
  const int seed = args.get_int("seed", 12345);
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  return unsigned(seed);
}

/// One RunContext configured from the lifecycle flags, with the
/// SIGINT/SIGTERM watcher installed for its lifetime. Every batch command
/// constructs one: even without flags, the watcher is what turns Ctrl-C
/// into a graceful drain instead of a lost batch.
struct Lifecycle {
  support::RunContext ctx;
  support::ScopedSignalCancel watcher{ctx};

  explicit Lifecycle(const Args& args) {
    if (args.has("deadline"))
      ctx.set_timeout(duration_flag(args, "deadline", 0.0));
    else if (args.has("max-wall"))
      ctx.set_timeout(duration_flag(args, "max-wall", 0.0));
    ctx.set_item_budget(args.get_int("max-samples", -1));
  }
};

/// Standard epilogue for a batch that may have been stopped early: reports
/// what was (not) done and maps a stop onto kExitInterrupted. A completed
/// run returns 0 untouched.
int finish_batch(std::ostream& os, support::StopReason stop,
                 std::size_t completed, std::size_t total,
                 const char* what, const std::string& journal_path) {
  if (stop == support::StopReason::kNone) return 0;
  os << "interrupted (" << support::to_string(stop) << "): " << completed
     << "/" << total << " " << what << " done";
  const int sig = support::ScopedSignalCancel::last_signal();
  if (sig != 0) os << " [signal " << sig << "]";
  os << '\n';
  if (!journal_path.empty())
    os << "resume with: --resume " << journal_path << '\n';
  return kExitInterrupted;
}

/// FNV-1a over the canonical batch configuration. Doubles enter as their
/// exact bit patterns: "the same configuration" means the same IEEE values,
/// not the same rounded text. Thread count is deliberately absent — results
/// are bit-identical for any value, so a journal written at --threads 8 is
/// valid for a resume at --threads 1. The testbench layout is present: a
/// journal from a build that simulated another circuit must not resume.
std::uint64_t batch_config_hash(const std::string& kind,
                                const std::string& tech_name,
                                const std::string& golden,
                                const process::Package& pkg, int n, double tr,
                                bool with_c, long long items, unsigned seed) {
  std::string s = kind;
  s += '|';
  s += circuit::kSsnBenchLayout;
  s += '|';
  s += tech_name;
  s += '|';
  s += golden;
  s += '|';
  s += support::hex_u64(support::double_bits(pkg.inductance));
  s += '|';
  s += support::hex_u64(support::double_bits(pkg.capacitance));
  s += '|';
  s += std::to_string(n);
  s += '|';
  s += support::hex_u64(support::double_bits(tr));
  s += '|';
  s += with_c ? 'c' : '-';
  s += '|';
  s += std::to_string(items);
  s += '|';
  s += std::to_string(seed);
  return support::fnv1a(s);
}

/// The plumbing every simulated batch command shares (sweep-n, sweep-c,
/// mc --sim), wired into the command's BatchOptions: --threads,
/// the lifecycle context, and the --journal / --resume pair bound to this
/// job's kind, configuration hash and size. A resume keeps checkpointing
/// into the resumed file unless --journal names another. Pinned in place:
/// the journal owns a mutex and the signal watcher references the context.
struct BatchSetup {
  Lifecycle life;
  std::optional<support::BatchJournal> journal;
  std::map<std::size_t, support::PointRecord> resume_items;
  std::string journal_path;  ///< checkpoint path ("" = no journal)

  BatchSetup(const Args& args, const std::string& kind,
             std::uint64_t config_hash, std::size_t total,
             analysis::BatchOptions& batch, std::ostream& os)
      : life(args), journal_path(args.get_or("journal", "")) {
    const std::string resume = args.get_or("resume", "");
    if (!resume.empty()) {
      const support::BatchJournal::Loaded loaded =
          support::BatchJournal::load(resume);
      support::BatchJournal::validate_against(loaded, kind, config_hash,
                                              total, resume);
      // A torn trailing record (power loss mid-checkpoint) is discarded, not
      // fatal; tell the user which item will re-run.
      for (const std::string& warning : loaded.warnings)
        os << "warning: " << warning << "\n";
      resume_items = loaded.items;
      batch.resume = &resume_items;
      if (journal_path.empty()) journal_path = resume;
    }
    if (!journal_path.empty()) {
      journal.emplace(journal_path, kind, config_hash, total);
      batch.journal = &*journal;
    }
    batch.threads = count_flag(args, "threads", 1);
    batch.run_ctx = &life.ctx;
  }

  int finish(std::ostream& os, const analysis::BatchSummary& summary,
             std::size_t total, const char* what) const {
    return finish_batch(os, summary.stop, total - summary.not_run, total, what,
                        journal_path);
  }
};

/// A sweep's output: the CSV on stdout, a `# resilience:` line when any
/// point degraded or did not run, and with --out the full-precision artifact
/// with an extra fidelity column. `fields` gives one row's values.
template <typename Row, typename Fields>
void emit_sweep(const Args& args, std::ostream& os,
                std::vector<std::string> headers, const std::vector<Row>& rows,
                const analysis::BatchSummary& summary, Fields fields) {
  io::write_csv_line(os, headers);
  for (const Row& r : rows) io::write_csv_line(os, fields(r));
  if (!summary.all_full_fidelity() || summary.not_run > 0)
    os << "# resilience: " << summary.to_string() << '\n';

  const std::string out_path = args.get_or("out", "");
  if (out_path.empty()) return;
  headers.push_back("fidelity");
  io::CsvWriter csv(std::move(headers));
  for (const Row& r : rows) {
    std::vector<double> values = fields(r);
    values.push_back(double(int(r.fidelity)));
    csv.add_row(values);
  }
  csv.write_file(out_path);
}

}  // namespace

const char* usage() {
  return R"(ssnkit — simultaneous switching noise estimation (Ding & Mazumder, DATE 2002)

usage: ssnkit <command> [options]

commands:
  calibrate   fit the ASDM (K, lambda, V_x) to a process' golden device
  estimate    closed-form max SSN for a switching event (+ --verify to simulate)
  sweep-n     max SSN vs driver count (CSV on stdout)
  sweep-c     max SSN vs pad capacitance (CSV on stdout)
  design      ground pads / max drivers / slope budget for a noise budget
  mc          Monte Carlo corner distribution of the max SSN
  ac          ground-path impedance sweep |Z(f)| (CSV on stdout)
  simulate    run a SPICE-flavoured netlist transient (.tran required)
  serve       long-lived analysis daemon: newline-delimited JSON requests
              on a Unix socket (--socket PATH) or stdin (docs/SERVING.md)

common options:
  --tech 180nm|250nm|350nm     process (default 180nm)
  --golden alpha|bsim          golden device family (default alpha)
  --package pga|qfp|wire_bond|flip_chip   (default pga)
  --pads K                     parallel ground pads (default 1)
  --l 5n / --c 1p              override package L / C
  --n 8                        simultaneously switching drivers
  --tr 0.1n                    input rise time
  --no-c                       drop the pad capacitance (Section 3 model)
  --threads T                  (sweep-n, sweep-c, mc) worker threads for the
                               batch; 1 = serial (default), 0 = auto.
                               Results are identical for any value
  --extended                   also report the post-ramp (true) peak
  --sim                        (mc) simulator-backed samples with the
                               recovery ladder instead of the closed forms

every simulated result carries a trust verdict (verified / refined /
unverified / degraded): the solve residual is re-checked, physics
invariants (passivity, Table 1 peak consistency) are enforced, and the
closed forms are cross-checked against the simulator at the paper's 3 %
bar. mc results additionally report the 95 % confidence interval on the
mean. See docs/ROBUSTNESS.md.

job lifecycle (sweep-n, sweep-c, mc, simulate):
  --deadline S | --max-wall S  stop cooperatively after S seconds of wall
                               clock; partial results are kept and flushed
  --max-samples K              (mc --sim, sweeps) start at most K new items
                               (resumed items are free)
  --journal FILE               (mc --sim, sweeps) checkpoint each finished
                               item to FILE (atomic rewrite, crash-safe)
  --resume FILE                restore finished items from FILE instead of
                               re-running them; the final result is
                               bit-identical to an uninterrupted run.
                               Keeps checkpointing into FILE unless
                               --journal names a different file
  --out FILE                   write the result CSV to FILE atomically at
                               full precision (clean vs resumed runs are
                               byte-identical)
  SIGINT/SIGTERM               first signal drains the batch gracefully
                               (journal + partial CSV flushed); second
                               signal hard-kills

serve options:
  --socket PATH                listen on a Unix socket (default: stdin pipe)
  --threads T                  server threads, 0 = auto (default); in
                               process mode at least one per worker
  --queue N                    admission bound; beyond it requests are shed
                               with SSN-E064 + retry_after_ms (default 64)
  --cache N                    result-cache entries, 0 disables (default 4096)
  --cache-file FILE            crash-safe cache spill; a restarted daemon
                               warms from it
  --request-deadline S         default per-request budget, at most 3600
                               (0 = none)
  --drain S                    drain budget on SIGTERM before in-flight
                               requests are cancelled with SSN-E066
                               (default 5); clean drain exits 0
  --isolate MODE               thread (default) runs requests in-process;
                               process runs each on a supervised sandboxed
                               worker: crashes/hangs/OOMs fail only their
                               own request (SSN-E068/E069), repeat-offender
                               requests are quarantined (SSN-E070)
  --workers K                  process mode: worker processes (default:
                               twice the resolved --threads count, at
                               most 64)
  --worker-mem MB              process mode: RLIMIT_AS per worker, 0 = none
                               (default 1024)
  --worker-cpu S               process mode: RLIMIT_CPU per worker, 0 = none
  --grace S                    process mode: wall-clock slack past a
                               request's deadline before the watchdog
                               SIGKILLs its worker (default 0.5)
  --quarantine N               process mode: worker deaths one request key
                               may cause before it is refused (default 2)
  --quarantine-file FILE       process mode: journal of quarantined request
                               lines (replayable for offline repro)

exit codes:
  0  success        1  error          2  usage
  75 interrupted (deadline, signal, or item budget; partial results were
     written — re-run with --resume to finish)
)";
}

int cmd_calibrate(const Args& args, std::ostream& os) {
  const auto tech = tech_from(args);
  const auto cal = analysis::calibrate(tech, golden_from(args));
  io::TextTable t({"parameter", "value"});
  t.add_row({std::string("technology"), tech.name});
  t.add_row({std::string("K [A/V]"), io::si_format(cal.asdm.params.k, 5)});
  t.add_row({std::string("lambda"), io::si_format(cal.asdm.params.lambda, 5)});
  t.add_row({std::string("V_x [V]"), io::si_format(cal.asdm.params.vx, 5)});
  t.add_row({std::string("fit max error [% of Imax]"),
             io::si_format(100.0 * cal.asdm.max_rel_error, 3)});
  t.add_row({std::string("alpha-power B [A/V^a]"),
             io::si_format(cal.baseline_b(), 5)});
  t.add_row({std::string("alpha-power V_T [V]"),
             io::si_format(cal.alpha.params.vt0, 4)});
  t.add_row({std::string("alpha-power alpha"),
             io::si_format(cal.alpha.params.alpha, 4)});
  os << t.to_string();
  warn_unused(args, os);
  return 0;
}

int cmd_estimate(const Args& args, std::ostream& os) {
  const auto tech = tech_from(args);
  const auto pkg = package_from(args);
  const int n = args.get_int("n", 8);
  const double tr = args.get_double("tr", 0.1e-9);
  const auto cal = analysis::calibrate(tech, golden_from(args));
  analysis::SsnEstimate est = analysis::estimate_closed_form(
      analysis::make_scenario(cal, pkg, n, tr, !args.flag("no-c")));
  const core::SsnScenario& scenario = est.scenario;

  io::TextTable t({"quantity", "value"});
  t.add_row({std::string("drivers (N)"), std::to_string(n)});
  t.add_row({std::string("L / C"),
             io::si_format(pkg.inductance) + "H / " +
                 (est.lc() ? io::si_format(pkg.capacitance) + "F"
                           : std::string("ignored"))});
  t.add_row({std::string("slope S"), io::si_format(scenario.slope) + "V/s"});
  t.add_row({std::string("beta = N*L*S"), io::si_format(scenario.beta(), 4)});
  if (est.lc()) {
    t.add_row({std::string("zeta"), io::si_format(est.zeta, 4)});
    t.add_row({std::string("C_crit"),
               io::si_format(scenario.critical_capacitance()) + "F"});
    t.add_row({std::string("Table 1 case"), core::to_string(est.max_case)});
    t.add_row({std::string("max SSN (LC model)"),
               io::si_format(est.v_max, 5) + "V"});
    if (args.flag("extended")) {
      const auto ext = core::LcModel(scenario).v_max_extended();
      t.add_row({std::string("max SSN incl. post-ramp"),
                 io::si_format(ext.v, 5) + "V" +
                     (ext.after_ramp ? " (peak after t_r)" : "")});
    }
  } else {
    t.add_row({std::string("max SSN (Eqn 7)"),
               io::si_format(est.v_max, 5) + "V"});
  }
  const auto sens = analysis::closed_form_sensitivities(scenario);
  t.add_row({std::string("elasticity wrt L / S"),
             io::si_format(sens.wrt_inductance, 3) + " / " +
                 io::si_format(sens.wrt_slope, 3)});
  os << t.to_string();

  if (args.flag("verify")) {
    const auto rm = analysis::simulate_estimate(cal, pkg, tr, est, nullptr);
    os << "simulated max SSN: " << io::si_format(rm.measurement.v_max, 5)
       << "V (" << rm.measurement.stats.accepted_steps << " steps)\n";
    if (rm.degraded())
      os << "fidelity: " << sim::to_string(rm.fidelity) << "\n";
  }
  os << "trust: " << est.trust.summary() << "\n";
  warn_unused(args, os);
  return 0;
}

int cmd_sweep_n(const Args& args, std::ostream& os) {
  analysis::DriverSweepConfig config;
  config.tech = tech_from(args);
  config.package = package_from(args);
  config.golden = golden_from(args);
  config.input_rise_time = args.get_double("tr", 0.1e-9);
  config.include_package_c = !args.flag("no-c");
  const int max_n = args.get_int("max-n", 16);
  config.driver_counts = analysis::driver_ladder(max_n);
  const std::size_t total = config.driver_counts.size();
  BatchSetup setup(
      args, "sweep-n",
      batch_config_hash("sweep-n", config.tech.name,
                        args.get_or("golden", "alpha"), config.package, max_n,
                        config.input_rise_time, config.include_package_c,
                        static_cast<long long>(total), 0),
      total, config.batch, os);

  const auto result = analysis::run_driver_sweep(config);
  emit_sweep(args, os,
             {"n", "sim", "this_work", "vemuru", "song", "senthinathan"},
             result.rows, result.summary, [](const auto& r) {
               return std::vector<double>{double(r.n), r.sim, r.this_work,
                                          r.vemuru, r.song, r.senthinathan};
             });
  warn_unused(args, os);
  return setup.finish(os, result.summary, total, "points");
}

int cmd_sweep_c(const Args& args, std::ostream& os) {
  analysis::CapacitanceSweepConfig config;
  config.tech = tech_from(args);
  config.package = package_from(args);
  config.golden = golden_from(args);
  config.n_drivers = args.get_int("n", 8);
  config.input_rise_time = args.get_double("tr", 0.1e-9);
  config.capacitances = analysis::default_capacitance_sweep();
  const std::size_t total = config.capacitances.size();
  BatchSetup setup(
      args, "sweep-c",
      batch_config_hash("sweep-c", config.tech.name,
                        args.get_or("golden", "alpha"), config.package,
                        config.n_drivers, config.input_rise_time, true,
                        static_cast<long long>(total), 0),
      total, config.batch, os);

  const auto result = analysis::run_capacitance_sweep(config);
  emit_sweep(args, os,
             {"c", "zeta", "sim", "lc_model", "l_only", "err_lc", "err_l_only"},
             result.rows, result.summary, [](const auto& r) {
               return std::vector<double>{r.c, r.zeta, r.sim, r.lc_model,
                                          r.l_only, r.err_lc, r.err_l_only};
             });
  warn_unused(args, os);
  return setup.finish(os, result.summary, total, "points");
}

int cmd_design(const Args& args, std::ostream& os) {
  const auto tech = tech_from(args);
  const auto pkg = package_from(args);
  const int n = args.get_int("n", 8);
  const double tr = args.get_double("tr", 0.1e-9);
  const double budget = args.get_double("budget", 0.15 * tech.vdd);

  const auto cal = analysis::calibrate(tech, golden_from(args));
  const auto scenario = analysis::make_scenario(cal, pkg, n, tr, true);

  io::TextTable t({"design query", "answer"});
  t.add_row({std::string("noise budget"), io::si_format(budget, 4) + "V"});
  t.add_row({std::string("predicted max SSN"),
             io::si_format(analysis::predict_vmax(scenario), 4) + "V"});
  try {
    t.add_row({std::string("ground pads needed"),
               std::to_string(analysis::required_ground_pads(scenario, pkg,
                                                             budget))});
  } catch (const std::runtime_error&) {
    t.add_row({std::string("ground pads needed"), std::string("> 64")});
  }
  t.add_row({std::string("max simultaneous drivers"),
             std::to_string(analysis::max_simultaneous_drivers(scenario,
                                                               budget))});
  try {
    t.add_row({std::string("max input slope"),
               io::si_format(analysis::max_input_slope(scenario, budget)) +
                   "V/s"});
  } catch (const std::runtime_error&) {
    t.add_row({std::string("max input slope"), std::string("below 1e8 V/s")});
  }
  os << t.to_string();
  warn_unused(args, os);
  return 0;
}

int cmd_mc(const Args& args, std::ostream& os) {
  const auto tech = tech_from(args);
  const auto pkg = package_from(args);
  const auto cal = analysis::calibrate(tech, golden_from(args));
  const int n = args.get_int("n", 8);
  const double tr = args.get_double("tr", 0.1e-9);
  const bool with_c = !args.flag("no-c");

  if (args.flag("sim")) {
    // Simulator-backed Monte Carlo: each sample is a full MNA transient run
    // under the recovery ladder; failures degrade instead of aborting.
    analysis::SimMonteCarloOptions opts;
    opts.samples = args.get_int("samples", 16);
    opts.seed = seed_flag(args);
    BatchSetup setup(
        args, "mc-sim",
        batch_config_hash("mc-sim", tech.name, args.get_or("golden", "alpha"),
                          pkg, n, tr, with_c, opts.samples, opts.seed),
        std::size_t(opts.samples), opts.batch, os);

    const auto mc = analysis::monte_carlo_vmax_sim(cal, pkg, n, tr, with_c, opts);
    io::TextTable t({"statistic", "V_max [V]"});
    t.add_row({std::string("samples (surviving/total)"),
               std::to_string(mc.surviving) + "/" +
                   std::to_string(mc.samples.size())});
    t.add_row({std::string("mean"), io::si_format(mc.mean, 4)});
    t.add_row({std::string("sigma"), io::si_format(mc.stddev, 4)});
    t.add_row({std::string("min / max"),
               io::si_format(mc.min, 4) + " / " + io::si_format(mc.max, 4)});
    t.add_row({std::string("95% CI (mean +/-)"), io::si_format(mc.ci95, 4)});
    os << t.to_string();
    os << "trust: " << mc.trust.summary() << '\n';
    os << "resilience: " << mc.summary.to_string() << '\n';
    for (const auto& note : mc.summary.notes) os << "  " << note << '\n';
    if (mc.resumed > 0)
      os << "resumed " << mc.resumed << " samples from "
         << args.get_or("resume", setup.journal_path) << '\n';

    // The CSV artifact holds only per-sample *outcomes*: identical between
    // a clean run and an interrupt + resume (only completed rows appear).
    const std::string out_path = args.get_or("out", "");
    if (!out_path.empty()) {
      io::CsvWriter csv({"index", "l_factor", "c_factor", "rise_factor",
                         "width_factor", "fidelity", "v_max"});
      for (const auto& s : mc.samples)
        if (s.completed)
          csv.add_row({double(s.index), s.l_factor, s.c_factor, s.rise_factor,
                       s.width_factor, double(int(s.fidelity)), s.v_max});
      csv.write_file(out_path);
    }
    warn_unused(args, os);
    return setup.finish(os, mc.summary, mc.samples.size(), "samples");
  }

  const auto scenario = analysis::make_scenario(cal, pkg, n, tr, with_c);

  analysis::MonteCarloOptions opts;
  opts.samples = args.get_int("samples", 1000);
  opts.seed = seed_flag(args);
  opts.threads = count_flag(args, "threads", 1);

  Lifecycle life(args);
  opts.run_ctx = &life.ctx;
  const auto mc = analysis::monte_carlo_vmax(scenario, opts);

  io::TextTable t({"statistic", "V_max [V]"});
  t.add_row({std::string("samples"), std::to_string(mc.completed) + "/" +
                                         std::to_string(opts.samples)});
  t.add_row({std::string("mean"), io::si_format(mc.mean, 4)});
  t.add_row({std::string("sigma"), io::si_format(mc.stddev, 4)});
  t.add_row({std::string("min / max"),
             io::si_format(mc.min, 4) + " / " + io::si_format(mc.max, 4)});
  t.add_row({std::string("p95"), io::si_format(mc.p95, 4)});
  t.add_row({std::string("p99"), io::si_format(mc.p99, 4)});
  t.add_row({std::string("95% CI (mean +/-)"), io::si_format(mc.ci95, 4)});
  t.add_row({std::string("damping-region flips"),
             io::si_format(100.0 * mc.region_flip_fraction, 3) + "%"});
  os << t.to_string();
  warn_unused(args, os);
  return finish_batch(os, mc.stop, mc.completed, std::size_t(opts.samples),
                      "samples", "");
}

int cmd_ac(const Args& args, std::ostream& os) {
  // Ground-path impedance seen by the drivers, with the bank linearized
  // mid-switching (see bench_ac_impedance for the full study).
  const auto tech = tech_from(args);
  const auto pkg = package_from(args);
  const int n = args.get_int("n", 8);

  circuit::Circuit ckt =
      circuit::make_ground_probe(tech, golden_from(args), pkg.inductance,
                                 pkg.capacitance, n, 0.5 * tech.vdd + 0.35);

  sim::AcOptions opts;
  opts.f_start = args.get_double("fstart", 1e8);
  opts.f_stop = args.get_double("fstop", 1e11);
  opts.points_per_decade = args.get_int("ppd", 40);
  const auto res = sim::run_ac(ckt, opts);
  const auto mag = res.magnitude("vssi");
  const auto phase = res.phase_deg("vssi");
  os << "freq,z_mag,z_phase_deg\n";
  for (std::size_t i = 0; i < res.point_count(); ++i)
    os << res.frequencies()[i] << ',' << mag[i] << ',' << phase[i] << '\n';
  warn_unused(args, os);
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& os) {
  if (args.positional().empty())
    throw std::invalid_argument("simulate: need a netlist file");
  const std::string& path = args.positional().front();
  circuit::ParseOptions popts;
  popts.filename = path;
  std::ifstream in(path, std::ios::ate);
  if (!in)
    throw support::IoError(support::IoError::Kind::kOpenFailed, path, "cannot open");
  // Reject oversized files before slurping them into memory; the parser
  // would refuse anyway, but only after the allocation.
  const auto size = in.tellg();
  if (size >= 0 && std::size_t(size) > popts.limits.max_input_bytes) {
    io::DiagnosticSink sink;
    sink.error(support::SrcLoc{path, 0, 0}, "SSN-E030",
               "netlist file is " + std::to_string(size) + " bytes, over the " +
                   std::to_string(popts.limits.max_input_bytes) +
                   " byte limit");
    throw io::ParseError(sink);
  }
  in.seekg(0);
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parse_result = circuit::parse_netlist_ex(ss.str(), popts);
  for (const auto& d : parse_result.diagnostics.diagnostics())
    if (d.severity == io::Severity::kWarning) os << d.format() << "\n";
  if (!parse_result.ok) throw io::ParseError(parse_result.diagnostics);
  auto& parsed = parse_result.netlist;
  if (!parsed.tran)
    throw std::invalid_argument("simulate: netlist has no .tran directive");

  sim::TransientOptions topts;
  topts.t_stop = parsed.tran->tstop;
  topts.dt_initial = parsed.tran->tstep;

  // Lifecycle: Ctrl-C / --deadline stop the transient at an accepted-step
  // boundary with the partial waveform intact; any other solver failure
  // still throws (typed) exactly as before.
  Lifecycle life(args);
  topts.run_ctx = &life.ctx;
  const auto run = sim::run_transient_ex(parsed.circuit, topts);
  if (run.error && !support::is_stop_kind(run.error->kind()))
    throw *run.error;
  const auto& result = run.result;

  // Every signal as time,<signals> rows: the default stdout CSV and --out.
  std::vector<std::string> headers = {"time"};
  for (const auto& name : result.signal_names()) headers.push_back(name);
  const auto for_each_row = [&](const auto& emit) {
    std::vector<waveform::Waveform> waves;
    for (const auto& name : result.signal_names())
      waves.push_back(result.waveform(name));
    for (std::size_t i = 0; i < result.point_count(); ++i) {
      std::vector<double> values = {result.times()[i]};
      for (const auto& w : waves) values.push_back(w.value(i));
      emit(values);
    }
  };

  const std::string probe = args.get_or("probe", "");
  if (!probe.empty() && result.point_count() == 0) {
    // A run stopped before the first accepted step has nothing to chart.
    os << probe << ": no points\n";
  } else if (!probe.empty()) {
    if (!result.has_signal(probe))
      throw std::invalid_argument("simulate: no signal '" + probe + "'");
    const auto wave = result.waveform(probe);
    io::ChartOptions copts;
    copts.title = "v(" + probe + ")";
    copts.y_label = probe;
    os << waveform::ascii_chart(wave, copts);
    os << probe << ": min " << wave.minimum().value << ", max "
       << wave.maximum().value << "\n";
  } else {
    io::write_csv_line(os, headers);
    for_each_row(
        [&](const std::vector<double>& v) { io::write_csv_line(os, v); });
  }

  const std::string out_path = args.get_or("out", "");
  if (!out_path.empty()) {
    io::CsvWriter csv(headers);
    for_each_row([&](const std::vector<double>& v) { csv.add_row(v); });
    csv.write_file(out_path);
  }
  warn_unused(args, os);
  if (run.error) {
    os << "interrupted (" << support::to_string(run.error->kind() ==
                                 support::SolverErrorKind::kCancelled
                             ? support::StopReason::kCancelled
                             : support::StopReason::kDeadlineExpired)
       << "): " << result.point_count() << " points written\n";
    return kExitInterrupted;
  }
  return 0;
}

int cmd_serve(const Args& args, std::ostream& os) {
  serve::ServerConfig config;
  config.threads = count_flag(args, "threads", 0);
  const int queue = args.get_int("queue", 64);
  if (queue < 1) throw std::invalid_argument("--queue must be >= 1");
  config.queue_capacity = std::size_t(queue);
  const int cache = args.get_int("cache", 4096);
  if (cache < 0) throw std::invalid_argument("--cache must be >= 0");
  config.cache_capacity = std::size_t(cache);
  config.cache_file = args.get_or("cache-file", "");
  config.default_deadline_s = duration_flag(args, "request-deadline", 0.0);
  // The default deadline travels on the worker wire, which bounds it.
  if (config.default_deadline_s > serve::kMaxDeadlineS)
    throw std::invalid_argument("--request-deadline must be <= " +
                                std::to_string(int(serve::kMaxDeadlineS)));
  config.drain_deadline_s = duration_flag(args, "drain", 5.0);
  const std::string isolate = args.get_or("isolate", "thread");
  if (isolate == "process") {
    config.isolate = serve::IsolateMode::kProcess;
  } else if (isolate != "thread") {
    throw std::invalid_argument("--isolate must be 'thread' or 'process'");
  }
  config.supervisor.workers = count_flag(args, "workers", 0);
  const int worker_mem = args.get_int("worker-mem", 1024);
  if (worker_mem < 0) throw std::invalid_argument("--worker-mem must be >= 0");
  config.supervisor.mem_limit_mb = std::size_t(worker_mem);
  config.supervisor.cpu_limit_s = duration_flag(args, "worker-cpu", 0.0);
  config.supervisor.grace_s = duration_flag(args, "grace", 0.5);
  const int quarantine = args.get_int("quarantine", 2);
  if (quarantine < 1) throw std::invalid_argument("--quarantine must be >= 1");
  config.supervisor.quarantine_after = quarantine;
  config.supervisor.quarantine_file = args.get_or("quarantine-file", "");
  const std::string socket_path = args.get_or("socket", "");
  warn_unused(args, os);

  // Fault-injection builds only: a soak harness cannot call arm() inside
  // the daemon process, so it configures the fault plan through the
  // environment. Release builds compile the hooks to `false` and ignore
  // the variable entirely.
  if (support::kFaultInjectionEnabled) {
    const char* plan = std::getenv("SSNKIT_FAULT_PLAN");
    if (plan != nullptr && *plan != '\0') {
      const std::size_t armed = support::arm_from_plan_string(plan);
      os << "{\"event\":\"fault-plan\",\"armed\":" << armed << "}\n";
      os.flush();
    }
  }

  // Same lifecycle wiring as the batch commands: the first SIGINT/SIGTERM
  // starts the graceful drain, the second hard-exits. --deadline bounds the
  // daemon's own lifetime (handy for smoke tests and supervised restarts).
  Lifecycle life(args);

  serve::Server server(config);
  if (socket_path.empty())
    return server.serve_stream(std::cin, os, &life.ctx);

  for (const std::string& warning : server.warm_warnings())
    os << "{\"event\":\"warning\",\"code\":\"SSN-W067\",\"message\":\""
       << serve::json_escape(warning) << "\"}\n";
  os.flush();
  // Socket mode: responses go to the clients' connections, but supervisor
  // lifecycle events (worker spawns/deaths, quarantine warnings) belong on
  // the daemon's own stream, where an operator or soak harness reads them.
  std::mutex event_mu;
  server.set_event_sink([&os, &event_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(event_mu);
    os << line << '\n';
    os.flush();
  });
  serve::SocketOptions sopts;
  sopts.path = socket_path;
  std::string err;
  if (serve::serve_unix_socket(server, sopts, &life.ctx, err) != 0) {
    os << "error: " << err << "\n";
    return 1;
  }
  os << serve::render_stats(server.stats()) << "\n";
  os.flush();
  return 0;
}

int run_cli(const std::vector<std::string>& argv, std::ostream& os,
            std::ostream& err) {
  if (argv.empty()) {
    err << usage();
    return 2;
  }
  using Command = int (*)(const Args&, std::ostream&);
  static const std::map<std::string, Command> commands = {
      {"calibrate", cmd_calibrate}, {"estimate", cmd_estimate},
      {"sweep-n", cmd_sweep_n},     {"sweep-c", cmd_sweep_c},
      {"design", cmd_design},       {"mc", cmd_mc},
      {"ac", cmd_ac},               {"simulate", cmd_simulate},
      {"serve", cmd_serve}};
  const std::string command = argv.front();
  const std::vector<std::string> rest(argv.begin() + 1, argv.end());
  try {
    const Args args =
        Args::parse(rest, {"no-c", "verify", "extended", "sim", "help"});
    // `<command> --help` and `<command> -h` print the usage instead of
    // running the command.
    const std::vector<std::string>& positional = args.positional();
    const bool asks_help =
        args.flag("help") ||
        std::find(positional.begin(), positional.end(), "-h") !=
            positional.end();
    const auto it = commands.find(command);
    if (command == "help" || command == "--help" || command == "-h" ||
        (it != commands.end() && asks_help)) {
      os << usage();
      return 0;
    }
    if (it != commands.end()) return it->second(args, os);
    err << "unknown command '" << command << "'\n" << usage();
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ssnkit::cli
