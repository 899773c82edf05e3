#include "workloads.hpp"

#include "gen.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

namespace ssnbench {

void RunReport::metric(const std::string& name, double value,
                       const std::string& unit, long n) {
  metrics.push_back(Metric{name, value, unit, n});
}

void RunReport::problem(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

const Metric* RunReport::find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

namespace {

/// Cold starts per run; setup_s is their median.
constexpr int kSetupRepeats = 15;
/// The committed reference holds the first this-many outputs of a workload
/// (and the traced mc run replays that many samples).
constexpr int kReferenceItems = 64;
/// A checked output may deviate this much from the committed reference.
constexpr double kReferenceTolerance = 1e-3;

// mc-sim-wide: `mc --sim` at N = 48, whole 64-sample invocations on four
// threads.
constexpr int kMcDrivers = 48, kMcSamples = 64, kMcThreads = 4;

// The serve daemon: three compute threads, and an admission queue long
// enough that the open loop is never shed (the default is 64).
constexpr int kServeThreads = 3, kServeQueue = 4096;
/// Phase lengths as shares of the run: warm-up, lo, hi, closed loop. The
/// traced run has no closed loop and keeps time for the replay.
constexpr double kLivePhases[4] = {0.05, 0.3, 0.2, 0.45};
constexpr double kTracedPhases[4] = {0.1, 0.2, 0.2, 0.0};
/// How long the daemon may take to answer what is in flight after a phase.
constexpr double kDrainTimeoutS = 20.0;

/// Traced batch items probed for the device and numeric share estimates.
constexpr int kProbeItems = 8;
/// Requests run through the one-worker supervisor in process mode.
constexpr std::size_t kIsolationProbeItems = 64;

std::string str(long v) { return std::to_string(v); }

double seconds_since(long long t0) { return double(now_ns() - t0) * 1e-9; }

/// Compares checked outputs with what they must equal and keeps the worst
/// deviation (reported as ref_err_max).
class Checker {
 public:
  Checker(RunReport& r, const RunContext& ctx) : r_(r), ref_(ctx.reference) {}

  /// Output of reference item `index`; checked when the seed has one.
  void reference(long index, double value, const std::string& what) {
    if (index < 0 || std::size_t(index) >= ref_.size()) return;
    note(value, ref_[std::size_t(index)], kReferenceTolerance,
         what + " vs committed reference");
  }

  /// A repeated input's output must equal the first one bit for bit: the
  /// program promises deterministic results (and a cache hit replays the
  /// stored one).
  void repeat(double value, double first, const std::string& what) {
    note(value, first, 0.0, what + " vs its first output");
  }

  double worst() const { return worst_; }
  long checked() const { return checked_; }

 private:
  void note(double value, double expected, double tol, const std::string& what) {
    ++checked_;
    const double dev = relative_deviation(value, expected);
    worst_ = std::max(worst_, dev);
    if (!matches_reference(value, expected, tol)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " deviates by %.3g", dev);
      r_.problem(what + buf);
    }
  }

  RunReport& r_;
  const std::vector<double>& ref_;
  double worst_ = 0.0;
  long checked_ = 0;
};

/// lat_p50_ms<suffix>, plus lat_p90_ms and lat_p99_ms where at least ten
/// samples lie beyond them.
void latency_metrics(RunReport& r, const std::string& suffix,
                     const std::vector<double>& ms) {
  if (ms.empty()) return;
  for (const double p : {0.5, 0.9, 0.99})
    if (p == 0.5 || percentile_supported(ms.size(), p))
      r.metric("lat_p" + std::to_string(int(p * 100)) + "_ms" + suffix,
               percentile(ms, p), "ms", long(ms.size()));
}

/// The end-to-end metrics every workload reports, under one set of names.
/// `lat_ms` is the workload's primary latency sample: one per batch
/// invocation or netlist, or one per request at the serve `lo` rate.
void e2e_metrics(RunReport& r, const std::vector<double>& setup, double rss,
                 double throughput, long throughput_n,
                 const std::vector<double>& lat_ms) {
  r.metric("setup_s", median(setup), "s", long(setup.size()));
  r.metric("rss_mb", rss, "MB", 1);
  r.metric("throughput_per_s", throughput, "1/s", throughput_n);
  latency_metrics(r, "", lat_ms);
}

// --- mc-sim-wide -------------------------------------------------------------

struct McRow {
  layers::McSample s;
  int fidelity = -1;
  double v_max = 0.0;
};

std::vector<McRow> read_mc_csv(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<McRow> rows;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    McRow row;
    long index = 0;
    if (std::sscanf(line.c_str(), "%ld,%lf,%lf,%lf,%lf,%d,%lf", &index,
                    &row.s.l_factor, &row.s.c_factor, &row.s.rise_factor,
                    &row.s.width_factor, &row.fidelity, &row.v_max) != 7)
      throw std::runtime_error("bad mc CSV row: " + line);
    rows.push_back(row);
  }
  return rows;
}

std::vector<std::string> mc_args(std::uint64_t seed, int samples,
                                 const std::string& csv) {
  // The program's own seed is derived from the benchmark seed.
  const long mc_seed = long(1 + derive_seed(seed, "mc") % (1u << 30));
  return {"mc",        "--sim",           "--n",    str(kMcDrivers),
          "--samples", str(samples),      "--threads", str(kMcThreads),
          "--seed",    str(mc_seed),      "--out",  csv};
}

void run_mc(const RunContext& ctx, RunReport& r) {
  const int samples = kMcSamples;
  const std::string csv = ctx.out_dir + "/mc-sim-wide.csv";
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const ProcResult pr = run_sut(mc_args(ctx.seed, 1, csv));
    if (pr.exit_code != 0) r.problem("set-up mc run exited " + str(pr.exit_code));
    setup.push_back(pr.wall_s);
  }

  Checker check(r, ctx);
  std::vector<double> walls, rates, first;
  double rss = 0.0;
  long trusted = 0;
  const long long t0 = now_ns();
  // Whole invocations of the same command back to back: every one must
  // reproduce the first bit for bit, and no partial batch biases the mix.
  do {
    const ProcResult pr = run_sut(mc_args(ctx.seed, samples, csv));
    walls.push_back(pr.wall_s);
    rates.push_back(samples / pr.wall_s);
    rss = std::max(rss, pr.maxrss_mb);
    r.attempted += samples;
    if (pr.exit_code != 0) {
      r.failed += samples;
      r.problem("mc exited " + str(pr.exit_code));
      continue;
    }
    const std::vector<McRow> rows = read_mc_csv(csv);
    if (long(rows.size()) != samples) {
      r.failed += samples - long(rows.size());
      r.problem("mc wrote " + str(long(rows.size())) + " rows");
    }
    const bool batch_trusted =
        pr.out.find("trust: verified") != std::string::npos ||
        pr.out.find("trust: refined") != std::string::npos;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string what = "mc sample " + str(long(i));
      if (rows[i].fidelity != 0) {
        ++r.failed;
        r.problem(what + " is not full-device fidelity");
      } else if (batch_trusted) {
        ++trusted;
      }
      check.reference(long(i), rows[i].v_max, what);
      if (i < first.size()) check.repeat(rows[i].v_max, first[i], what);
    }
    if (first.empty())
      for (const McRow& row : rows) first.push_back(row.v_max);
  } while (seconds_since(t0) + median(walls) <= ctx.seconds);

  std::vector<double> wall_ms;
  for (const double s : walls) wall_ms.push_back(s * 1e3);
  e2e_metrics(r, setup, rss, median(rates), long(rates.size()), wall_ms);
  r.metric("fail_frac", hit_ratio(double(r.failed), double(r.attempted)),
           "ratio", r.attempted);
  r.metric("trusted_frac", hit_ratio(double(trusted), double(r.attempted)),
           "ratio", r.attempted);
  r.metric("ref_err_max", check.worst(), "ratio", check.checked());
}

// --- netlist-staggered ---------------------------------------------------------

/// "vssi: min A, max B" from `ssnkit simulate --probe vssi`.
double simulate_vmax(const std::string& out) {
  const std::size_t at = out.find("vssi: min ");
  const std::size_t max_at =
      at == std::string::npos ? at : out.find(", max ", at);
  if (max_at == std::string::npos) return std::nan("");
  return std::strtod(out.c_str() + max_at + 6, nullptr);
}

void run_netlist(const RunContext& ctx, RunReport& r) {
  const std::string setup_path = ctx.out_dir + "/netlist-setup.cir";
  write_file(setup_path, make_setup_netlist(ctx.seed));
  std::vector<std::string> paths;
  for (int i = 0; i < kNetlistItems; ++i) {
    paths.push_back(ctx.out_dir + "/netlist-" + str(i) + ".cir");
    write_file(paths.back(), make_netlist(ctx.seed, i));
  }
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const ProcResult pr = run_sut({"simulate", setup_path, "--probe", "vssi"});
    if (pr.exit_code != 0) r.problem("set-up simulate exited " + str(pr.exit_code));
    setup.push_back(pr.wall_s);
  }

  Checker check(r, ctx);
  std::vector<double> item_ms, rates, first;
  double rss = 0.0, pass_s = 0.0;
  const long long t0 = now_ns();
  // Whole passes over the set, so every pass simulates the same mix.
  do {
    const long long pass_t0 = now_ns();
    for (int i = 0; i < kNetlistItems; ++i) {
      const ProcResult pr = run_sut({"simulate", paths[std::size_t(i)],
                                     "--probe", "vssi"});
      item_ms.push_back(pr.wall_s * 1e3);
      rss = std::max(rss, pr.maxrss_mb);
      ++r.attempted;
      const double v = simulate_vmax(pr.out);
      const std::string what = "netlist " + str(i);
      if (pr.exit_code != 0 || !std::isfinite(v)) {
        ++r.failed;
        r.problem(what + " failed (exit " + str(pr.exit_code) + ")");
        continue;
      }
      check.reference(i, v, what);
      if (std::size_t(i) < first.size())
        check.repeat(v, first[std::size_t(i)], what);
      else
        first.push_back(v);
    }
    pass_s = seconds_since(pass_t0);
    rates.push_back(kNetlistItems / pass_s);
  } while (seconds_since(t0) + pass_s <= ctx.seconds);

  e2e_metrics(r, setup, rss, median(rates), long(rates.size()), item_ms);
  r.metric("fail_frac", hit_ratio(double(r.failed), double(r.attempted)),
           "ratio", r.attempted);
  r.metric("ref_err_max", check.worst(), "ratio", check.checked());
}

// --- serve-* -------------------------------------------------------------------

/// A serve workload as spec.json gives it.
struct ServeSetup {
  ServeParams params;
  bool process = false;  ///< --isolate process (else thread)
  std::string socket, log;
  std::vector<std::string> args;
  double lo_rps = 0, hi_rps = 0, limit_ms = 0;
};

ServeSetup serve_setup(const RunContext& ctx, const std::string& name,
                       const Json& w) {
  ServeSetup s;
  s.params = ServeParams::from(w);
  const std::string isolate = w.str("isolate");
  s.process = isolate == "process";
  // Relative to the checkout root, which keeps it inside the 108-byte
  // sun_path limit wherever the checkout lives.
  s.socket = ctx.out_dir + "/" + name + ".sock";
  s.log = ctx.out_dir + "/" + name + ".log";
  s.args = {"serve",     "--socket",          s.socket,
            "--threads", str(kServeThreads),  "--isolate",
            isolate,     "--queue",           str(kServeQueue)};
  s.lo_rps = w.num("lo_rps");
  s.hi_rps = w.num("hi_rps");
  s.limit_ms = w.num("p99_limit_ms");
  return s;
}

/// Daemon spawn to the first ok response, then a graceful stop.
std::vector<double> serve_setup_times(const ServeSetup& s, RunReport& r) {
  std::vector<double> out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Daemon d(s.args, s.log);
    // round_trip spins on connect; keep it off the daemon's cores.
    const CpuPin pin(CpuPin::Side::kGenerator);
    const std::string resp = round_trip(
        s.socket, "{\"id\":\"setup\",\"cmd\":\"estimate\",\"n\":8}", 30.0);
    out.push_back(double(now_ns() - d.started_ns()) * 1e-9);
    if (resp.find("\"ok\":true") == std::string::npos)
      r.problem("set-up request failed: " + resp);
    if (d.stop().exit_code != 0) r.problem("set-up daemon did not drain cleanly");
  }
  return out;
}

/// A number from the daemon's final {"event":"stats",...} line.
double stats_field(const std::string& log, const std::string& field) {
  const std::size_t line = log.rfind("{\"event\":\"stats\"");
  if (line == std::string::npos) return std::nan("");
  const std::size_t at = log.find("\"" + field + "\":", line);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(log.c_str() + at + field.size() + 3, nullptr);
}

enum Phase { kWarm, kLo, kHi, kClosed };
const char* const kPhaseNames[] = {"warm", "lo", "hi", "closed"};

struct LiveRun {
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  PhaseStats phase[4];
  std::string log;
  double rss_mb = 0.0;
};

/// Run the daemon through the phases whose length is given as shares of
/// `seconds` (a zero share skips the phase) and check every response.
LiveRun live_serve(const RunContext& ctx, const std::string& name,
                   const ServeSetup& s, const double share[4], RunReport& r) {
  LiveRun live;
  {
    Daemon d(s.args, s.log);
    RequestStream stream(s.params, derive_seed(ctx.seed, name));
    LoadGen gen(s.socket, 4, 30.0);
    for (int ph = kWarm; ph <= kClosed; ++ph) {
      if (share[ph] <= 0.0) continue;
      const double secs = share[ph] * ctx.seconds;
      const double rate = ph == kHi ? s.hi_rps : s.lo_rps;
      live.phase[ph] =
          ph == kClosed
              ? gen.closed_loop(stream, secs, ph)
              : gen.open_loop(stream, rate, secs, ph,
                              derive_seed(ctx.seed, name + "-arrivals",
                                          std::uint64_t(ph)));
      if (!gen.drain(kDrainTimeoutS))
        r.problem(std::string("responses missing after the ") +
                  kPhaseNames[ph] + " phase");
    }
    live.requests = gen.requests();
    live.outcomes = gen.outcomes();
    const ProcResult pr = d.stop();
    live.log = pr.out;
    live.rss_mb = pr.maxrss_mb;
    if (pr.exit_code != 0) r.problem("daemon exited " + str(pr.exit_code));
  }

  Checker check(r, ctx);
  std::map<long, double> first;  // config index -> first value
  for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
    const Outcome& o = live.outcomes[i];
    const Request& q = live.requests[i];
    ++r.attempted;
    if (!o.answered || !o.ok || !std::isfinite(o.value)) {
      ++r.failed;
      r.problem("request " + str(q.seq) + " not ok" +
                (o.code.empty() ? std::string() : " (" + o.code + ")"));
      continue;
    }
    const std::string what = "request " + str(q.seq) + " (" + q.kind + ")";
    check.reference(q.seq, o.value, what);
    const auto [it, inserted] = first.emplace(q.config, o.value);
    if (!inserted) check.repeat(o.value, it->second, what);
  }
  r.metric("ref_err_max", check.worst(), "ratio", check.checked());

  // Measurement validity: the generator's own honesty checks.
  const double responded = stats_field(live.log, "responded");
  const double hits = hit_ratio(stats_field(live.log, "cache_hits"), responded);
  r.metric("serve.cache_hit_ratio", hits, "ratio", long(responded));
  if (!hit_ratio_matches(hits, s.params.repeat_share))
    r.invalid.push_back("cache hit ratio " + std::to_string(hits) +
                        " is not within 0.05 of the repeat share");
  // Lateness is judged over the measured open-loop phases together (the
  // warm-up is not measured); each phase's own p99 is printed too.
  std::vector<double> measured_lateness;
  for (const int ph : {kWarm, kLo, kHi}) {
    const PhaseStats& st = live.phase[ph];
    if (st.lateness_ms.empty()) continue;
    r.metric(std::string("gen.lateness_p99_ms.") + kPhaseNames[ph],
             percentile(st.lateness_ms, 0.99), "ms",
             long(st.lateness_ms.size()));
    r.metric(std::string("gen.inflight_end.") + kPhaseNames[ph],
             double(st.inflight_at_end), "count", st.sent);
    if (ph != kWarm)
      measured_lateness.insert(measured_lateness.end(), st.lateness_ms.begin(),
                               st.lateness_ms.end());
  }
  const double late = percentile(measured_lateness, 0.99);
  if (late > 1.0)
    r.invalid.push_back("generator lateness p99 " + std::to_string(late) +
                        " ms over the lo and hi phases");
  // At the lo rate the queue must not build up: more than 50 ms worth of
  // arrivals in flight at the end means the backlog grew.
  if (live.phase[kLo].sent > 0 &&
      double(live.phase[kLo].inflight_at_end) > 10.0 + 0.05 * s.lo_rps)
    r.invalid.push_back("backlog grew at the lo rate");
  return live;
}

void run_serve(const RunContext& ctx, const std::string& name, const Json& w,
               RunReport& r) {
  const ServeSetup s = serve_setup(ctx, name, w);
  const std::vector<double> setup = serve_setup_times(s, r);
  const LiveRun live = live_serve(ctx, name, s, kLivePhases, r);

  std::vector<double> lat[4];
  // lo-rate latency per request kind, cache hits apart: the mix is
  // bimodal, and this shows which mode the median falls in.
  std::map<std::string, std::vector<double>> lo_by_kind;
  long slo_met = 0, trusted = 0, ok = 0;
  for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
    const Outcome& o = live.outcomes[i];
    if (o.ok) ++ok;
    if (o.trusted) ++trusted;
    if (o.phase == kHi && o.ok && o.latency_ms() <= s.limit_ms) ++slo_met;
    if (!o.answered) continue;
    lat[o.phase].push_back(o.latency_ms());
    if (o.phase == kLo)
      lo_by_kind[std::string(live.requests[i].kind) + (o.cached ? "-hit" : "")]
          .push_back(o.latency_ms());
  }
  // Saturation throughput: the median over half-second windows of the
  // closed loop, so a host stall costs one window rather than the phase.
  const PhaseStats& closed = live.phase[kClosed];
  constexpr double kWindowS = 0.5;
  std::vector<double> per_window(
      std::size_t((closed.end_ns - closed.start_ns) / to_ns(kWindowS)), 0.0);
  for (const Outcome& o : live.outcomes) {
    if (o.phase != kClosed || !o.answered || o.recv_ns < closed.start_ns)
      continue;
    const auto at = std::size_t((o.recv_ns - closed.start_ns) / to_ns(kWindowS));
    if (at < per_window.size()) per_window[at] += 1.0 / kWindowS;
  }
  e2e_metrics(r, setup, live.rss_mb, median(per_window),
              long(per_window.size()), lat[kLo]);
  latency_metrics(r, ".hi", lat[kHi]);
  for (const auto& [kind, ms] : lo_by_kind)
    r.metric("lat_p50_ms." + kind, percentile(ms, 0.5), "ms", long(ms.size()));
  r.metric("slo_frac.hi",
           hit_ratio(double(slo_met), double(live.phase[kHi].sent)), "ratio",
           live.phase[kHi].sent);
  r.metric("fail_frac", hit_ratio(double(r.failed), double(r.attempted)),
           "ratio", r.attempted);
  r.metric("trusted_frac", hit_ratio(double(trusted), double(ok)), "ratio", ok);
}

// --- traced runs ---------------------------------------------------------------

/// Items replayed once untraced and once traced, in alternating order, so
/// the difference between the two is the tracing overhead.
struct TraceRun {
  Tracer tracer{true};
  Tracer off{false};
  double traced_ns = 0, untraced_ns = 0;
  long items = 0;
  std::vector<layers::PointCounts> points;  ///< per simulated item

  /// `fn(tracer)` runs item `item` once.
  template <typename Fn>
  void alternate(long item, Fn&& fn) {
    const auto once = [&](bool traced) {
      const long long t0 = now_ns();
      if (traced) {
        const Scope root(tracer, "item", item);
        fn(tracer);
      } else {
        fn(off);
      }
      (traced ? traced_ns : untraced_ns) += double(now_ns() - t0);
    };
    once(item % 2 != 0);
    once(item % 2 == 0);
    ++items;
  }
};

/// Probe results of the first few simulated items, for the computed
/// device and numeric shares of the transient.
struct ProbeSums {
  double eval_ns = 0, refactor_ns = 0, nnz = 0;
  /// Estimated device-evaluation and refactor+solve time inside the
  /// probed transients, and those transients' measured self time.
  double device_ns = 0, numeric_ns = 0, transient_ns = 0;
  long probed = 0;
};

void add_probe(ProbeSums& sums, const layers::Probe& p,
               const layers::PointCounts& c, double eval_ns,
               double transient_ns) {
  sums.eval_ns += eval_ns;
  sums.refactor_ns += p.refactor_solve_ns;
  sums.nnz += p.factor_nnz;
  sums.device_ns += eval_ns * c.mosfets * c.newton_iters;
  sums.numeric_ns += p.refactor_solve_ns * c.newton_iters;
  sums.transient_ns += transient_ns;
  ++sums.probed;
}

/// Self time of spans named exactly `name`, per item (index = item id).
std::vector<double> self_ns_per_item(const std::vector<Span>& spans,
                                     const std::vector<std::int64_t>& self,
                                     const char* name, long items) {
  std::vector<double> out(std::size_t(std::max(items, 0L)), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].item >= 0 && spans[i].item < items &&
        std::strcmp(spans[i].name, name) == 0)
      out[std::size_t(spans[i].item)] += double(self[i]);
  return out;
}

/// Mean self time of the spans named `name` and how many there were.
std::pair<double, long> mean_self_ns(const std::vector<Span>& spans,
                                     const std::vector<std::int64_t>& self,
                                     const char* name) {
  double sum = 0.0;
  long n = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (std::strcmp(spans[i].name, name) == 0) {
      sum += double(self[i]);
      ++n;
    }
  return {n > 0 ? sum / double(n) : 0.0, n};
}

constexpr const char* kShareLayers[] = {
    "analysis.calibrate", "circuit.build",    "circuit.parse",
    "sim.transient",      "waveform.extract", "waveform.render",
    "verify.physics",     "serve.parse",      "serve.cache",
    "serve.execute",      "serve.render"};

/// The per-layer metrics every traced workload reports (zero where a
/// layer is not on the workload's path), plus the absolute per-layer
/// times of the layers it does reach.
void trace_metrics(RunReport& r, const TraceRun& t, const ProbeSums& probe) {
  const std::vector<Span>& spans = t.tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  double wall = 0.0;
  for (const Span& s : spans)
    if (s.parent < 0) wall += double(s.end_ns - s.start_ns);
  const std::map<std::string, double> layer = self_ns_by_layer(spans);
  double covered = 0.0;
  for (const auto& [name, ns] : layer) covered += ns;

  r.metric("trace.item_us", t.traced_ns / double(t.items) * 1e-3, "us",
           t.items);
  r.metric("trace.coverage", covered / wall, "ratio", t.items);
  r.metric("trace.overhead_frac", t.traced_ns / t.untraced_ns - 1.0, "ratio",
           t.items);
  for (const char* name : kShareLayers) {
    const auto it = layer.find(name);
    r.metric(std::string(name) + ".share", it == layer.end() ? 0.0 : it->second / wall,
             "ratio", t.items);
  }

  layers::PointCounts sum;
  for (const layers::PointCounts& c : t.points) {
    sum.unknowns += c.unknowns;
    sum.accepted += c.accepted;
    sum.rejected += c.rejected;
    sum.newton_iters += c.newton_iters;
    sum.newton_failures += c.newton_failures;
    sum.dc_iters += c.dc_iters;
    sum.residual_checks += c.residual_checks;
    sum.refinements += c.refinements;
  }
  const long points = long(t.points.size());
  const double per = points > 0 ? 1.0 / double(points) : 0.0;
  r.metric("circuit.unknowns", sum.unknowns * per, "count", points);
  r.metric("sim.accepted_steps", sum.accepted * per, "count", points);
  r.metric("sim.rejected_steps", sum.rejected * per, "count", points);
  r.metric("sim.newton_iters", sum.newton_iters * per, "count", points);
  r.metric("sim.newton_failures", sum.newton_failures * per, "count", points);
  r.metric("sim.dc_iters", sum.dc_iters * per, "count", points);
  const double attempts = sum.accepted + sum.rejected + sum.newton_failures;
  r.metric("sim.step_accept_ratio", hit_ratio(sum.accepted, attempts), "ratio",
           long(attempts));
  r.metric("sim.newton_per_step", hit_ratio(sum.newton_iters, sum.accepted),
           "ratio", long(sum.accepted));
  r.metric("verify.residual_checks", sum.residual_checks * per, "count", points);
  r.metric("verify.refinements", sum.refinements * per, "count", points);
  // A workload that simulates nothing still evaluates the golden device
  // when it calibrates; probe that device there.
  const double probed = double(std::max(probe.probed, 1L));
  r.metric("devices.eval_ns",
           probe.probed > 0 ? probe.eval_ns / probed
                            : layers::device_eval_ns(1.0),
           "ns", std::max(probe.probed, 1L));
  r.metric("devices.share_est", hit_ratio(probe.device_ns, probe.transient_ns),
           "ratio", probe.probed);
  r.metric("numeric.share_est", hit_ratio(probe.numeric_ns, probe.transient_ns),
           "ratio", probe.probed);
  r.metric("numeric.factor_nnz", probe.nnz / probed, "count", probe.probed);
  if (probe.probed > 0)
    r.metric("numeric.refactor_solve_us", probe.refactor_ns / probed * 1e-3,
             "us", probe.probed);

  // Absolute per-layer times (printed and kept in results.json; the
  // benchmark's contract carries the shares above, which exist on every
  // workload).
  const struct {
    const char* span;
    const char* metric;
    double scale;
    const char* unit;
  } absolute[] = {
      {"analysis.calibrate", "analysis.calibrate_ms", 1e-6, "ms"},
      {"circuit.build", "circuit.build_ms", 1e-6, "ms"},
      {"circuit.parse", "circuit.parse_ms", 1e-6, "ms"},
      {"sim.transient", "sim.transient_ms", 1e-6, "ms"},
      {"verify.physics", "verify.physics_us", 1e-3, "us"},
      {"waveform.extract", "waveform.extract_us", 1e-3, "us"},
      {"waveform.render", "waveform.render_us", 1e-3, "us"},
      {"serve.parse", "serve.parse_us", 1e-3, "us"},
      {"serve.render", "serve.render_us", 1e-3, "us"},
      {"serve.execute.estimate", "serve.execute_us.estimate", 1e-3, "us"},
      {"serve.execute.mc", "serve.execute_us.mc", 1e-3, "us"},
      {"serve.execute.sim", "serve.execute_ms.sim", 1e-6, "ms"},
  };
  for (const auto& a : absolute) {
    const auto [mean, n] = mean_self_ns(spans, self, a.span);
    if (n > 0) r.metric(a.metric, mean * a.scale, a.unit, n);
  }
}

void trace_mc(const RunContext& ctx, RunReport& r, TraceRun& t,
              ProbeSums& probe) {
  const std::string csv = ctx.out_dir + "/mc-sim-wide-trace.csv";
  // The untimed product run whose samples the replay rebuilds.
  const ProcResult pr = run_sut(mc_args(ctx.seed, kReferenceItems, csv));
  if (pr.exit_code != 0) {
    r.problem("mc exited " + str(pr.exit_code));
    return;
  }
  const std::vector<McRow> rows = read_mc_csv(csv);
  Checker check(r, ctx);
  layers::McReplay replay(t.tracer, kMcDrivers);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    layers::PointCounts c;
    double traced = 0.0, untraced = 0.0;
    t.alternate(long(i), [&](Tracer& tr) {
      (tr.enabled() ? traced : untraced) =
          replay.sample(tr, long(i), rows[i].s, c);
    });
    ++r.attempted;
    t.points.push_back(c);
    const std::string what = "replayed mc sample " + str(long(i));
    // The replay must reproduce the product's sample exactly.
    if (std::memcmp(&traced, &rows[i].v_max, sizeof(double)) != 0 ||
        std::memcmp(&untraced, &rows[i].v_max, sizeof(double)) != 0) {
      ++r.failed;
      r.problem(what + " differs from the CLI's CSV");
    }
    check.reference(long(i), traced, what);
  }
  r.metric("ref_err_max", check.worst(), "ratio", check.checked());

  const std::vector<std::int64_t> self = self_times(t.tracer.spans());
  const std::vector<double> transient =
      self_ns_per_item(t.tracer.spans(), self, "sim.transient", t.items);
  const int probes = std::min(kProbeItems, int(rows.size()));
  for (int i = 0; i < probes; ++i)
    add_probe(probe, replay.probe(rows[std::size_t(i)].s),
              t.points[std::size_t(i)],
              layers::device_eval_ns(rows[std::size_t(i)].s.width_factor),
              transient[std::size_t(i)]);
}

void trace_netlist(const RunContext& ctx, RunReport& r, TraceRun& t,
                   ProbeSums& probe) {
  Checker check(r, ctx);
  std::vector<std::string> texts;
  for (int i = 0; i < kNetlistItems; ++i) {
    texts.push_back(make_netlist(ctx.seed, i));
    layers::PointCounts c;
    double traced = 0.0, untraced = 0.0;
    t.alternate(i, [&](Tracer& tr) {
      (tr.enabled() ? traced : untraced) =
          layers::netlist_item(tr, i, texts.back(), c);
    });
    ++r.attempted;
    t.points.push_back(c);
    const std::string what = "replayed netlist " + str(i);
    if (!std::isfinite(traced)) {
      ++r.failed;
      r.problem(what + " failed");
      continue;
    }
    check.reference(i, traced, what);
    check.repeat(untraced, traced, what);
  }
  r.metric("ref_err_max", check.worst(), "ratio", check.checked());

  const std::vector<std::int64_t> self = self_times(t.tracer.spans());
  const std::vector<double> transient =
      self_ns_per_item(t.tracer.spans(), self, "sim.transient", t.items);
  const double eval_ns = layers::device_eval_ns(1.0);
  for (int i = 0; i < kProbeItems; ++i)
    add_probe(probe, layers::netlist_probe(texts[std::size_t(i)]),
              t.points[std::size_t(i)], eval_ns, transient[std::size_t(i)]);
}

void trace_serve(const RunContext& ctx, const std::string& name, const Json& w,
                 RunReport& r, TraceRun& t) {
  const ServeSetup s = serve_setup(ctx, name, w);
  RunReport live_report;  // the live run's own numbers feed the derivations
  const LiveRun live = live_serve(ctx, name, s, kTracedPhases, live_report);
  for (const std::string& p : live_report.problems) r.problem(p);
  r.invalid = live_report.invalid;
  r.metric("serve.cache_hit_ratio",
           live_report.find("serve.cache_hit_ratio")->value, "ratio",
           live_report.find("serve.cache_hit_ratio")->n);
  for (const char* field : {"shed", "solver_errors", "worker_crashes"})
    r.metric(std::string("serve.") + field, stats_field(live.log, field),
             "count", 1);

  // Replay every request the daemon saw, in order, against in-process
  // caches that see the same sequence (so hits and misses match).
  layers::ServeReplay traced(t.tracer);
  layers::ServeReplay untraced(t.off);
  Checker check(r, ctx);
  std::vector<double> service_ns(live.requests.size(), 0.0);
  for (std::size_t i = 0; i < live.requests.size(); ++i) {
    const Request& q = live.requests[i];
    layers::ServeReplay::Result res;
    t.alternate(q.seq, [&](Tracer& tr) {
      const long long t0 = now_ns();
      layers::ServeReplay::Result got =
          (tr.enabled() ? traced : untraced).item(tr, q.seq, q.line);
      if (tr.enabled()) {
        service_ns[i] = double(now_ns() - t0);
        res = std::move(got);
      }
    });
    ++r.attempted;
    const std::string what = "replayed request " + str(q.seq);
    if (!res.ok) {
      ++r.failed;
      r.problem(what + " failed");
      continue;
    }
    const double v = response_value(res.response, q.kind);
    check.reference(q.seq, v, what);
    check.repeat(v, live.outcomes[i].value, what + " vs the daemon");
  }
  r.metric("ref_err_max", check.worst(), "ratio", check.checked());

  // Derived: queue wait at hi = live latency - traced service time of the
  // same request; transport = live latency of lo-rate cache hits - their
  // traced parse + cache + render.
  const std::vector<Span>& spans = t.tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  const long n = long(live.requests.size());
  const std::vector<double> parse = self_ns_per_item(spans, self, "serve.parse", n);
  const std::vector<double> cache = self_ns_per_item(spans, self, "serve.cache", n);
  const std::vector<double> render = self_ns_per_item(spans, self, "serve.render", n);
  std::vector<double> wait_ms, hit_live_ms, hit_traced_ms;
  for (std::size_t i = 0; i < live.outcomes.size(); ++i) {
    const Outcome& o = live.outcomes[i];
    if (!o.answered) continue;
    if (o.phase == kHi) wait_ms.push_back(o.latency_ms() - service_ns[i] * 1e-6);
    if (o.phase == kLo && o.cached) {
      hit_live_ms.push_back(o.latency_ms());
      hit_traced_ms.push_back((parse[i] + cache[i] + render[i]) * 1e-6);
    }
  }
  if (!wait_ms.empty()) {
    r.metric("serve.queue_wait_ms.hi.p50", median(wait_ms), "ms",
             long(wait_ms.size()));
    r.metric("serve.queue_wait_ms.hi.p99", percentile(wait_ms, 0.99), "ms",
             long(wait_ms.size()));
  }
  if (!hit_live_ms.empty())
    r.metric("serve.transport_us",
             (median(hit_live_ms) - median(hit_traced_ms)) * 1e3, "us",
             long(hit_live_ms.size()));

  double isolation = 0.0;
  std::vector<std::string> lines;
  if (s.process) {
    for (const Request& q : live.requests)
      if (!q.repeat && lines.size() < kIsolationProbeItems)
        lines.push_back(q.line);
    const layers::IsolationProbe iso = layers::isolation_probe(lines);
    if (!iso.ok) r.problem("isolation probe request failed");
    isolation = iso.overhead_ratio;
    r.metric("serve.supervisor_rtt_us", iso.rtt_us, "us", long(lines.size()));
    r.metric("serve.worker_cold_ms", iso.worker_cold_ms, "ms", 1);
  }
  r.metric("serve.isolation_overhead_ratio", isolation, "ratio",
           long(lines.size()));
}

}  // namespace

RunReport run_workload(const RunContext& ctx, const std::string& workload,
                       bool trace) {
  RunReport r;
  r.workload = workload;
  r.trace = trace;
  const Json& w = ctx.spec->at("workloads").at(workload);
  const std::string kind = w.str("kind");
  if (!trace) {
    if (kind == "mc") run_mc(ctx, r);
    else if (kind == "netlist") run_netlist(ctx, r);
    else run_serve(ctx, workload, w, r);
    return r;
  }
  TraceRun t;
  ProbeSums probe;
  if (kind == "mc") trace_mc(ctx, r, t, probe);
  else if (kind == "netlist") trace_netlist(ctx, r, t, probe);
  else trace_serve(ctx, workload, w, r, t);
  if (t.items > 0) trace_metrics(r, t, probe);
  if (kind == "mc" || kind == "netlist") {
    // Serve layers are not on a batch workload's path.
    r.metric("serve.cache_hit_ratio", 0.0, "ratio", 0);
    r.metric("serve.isolation_overhead_ratio", 0.0, "ratio", 0);
  }
  write_trace_file(ctx.out_dir + "/trace-" + workload + ".json", workload,
                   t.tracer.spans());
  return r;
}

std::vector<double> reference_values(const RunContext& ctx,
                                     const std::string& workload) {
  const Json& w = ctx.spec->at("workloads").at(workload);
  const std::string kind = w.str("kind");
  std::vector<double> out;
  Tracer off(false);
  if (kind == "mc") {
    const std::string csv = ctx.out_dir + "/mc-sim-wide-reference.csv";
    const ProcResult pr = run_sut(mc_args(ctx.seed, kReferenceItems, csv));
    if (pr.exit_code != 0) throw std::runtime_error("mc failed");
    for (const McRow& row : read_mc_csv(csv)) out.push_back(row.v_max);
  } else if (kind == "netlist") {
    for (int i = 0; i < std::min(kReferenceItems, kNetlistItems); ++i) {
      layers::PointCounts c;
      out.push_back(layers::netlist_item(off, i, make_netlist(ctx.seed, i), c));
    }
  } else {
    RequestStream stream(ServeParams::from(w), derive_seed(ctx.seed, workload));
    layers::ServeReplay replay(off);
    for (int i = 0; i < kReferenceItems; ++i) {
      const Request q = stream.next();
      out.push_back(
          response_value(replay.item(off, q.seq, q.line).response, q.kind));
    }
  }
  for (const double v : out)
    if (!std::isfinite(v))
      throw std::runtime_error(workload + ": a reference output is not finite");
  return out;
}

}  // namespace ssnbench
