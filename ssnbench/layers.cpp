#include "layers.hpp"

#include "stats.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "cli/commands.hpp"
#include "numeric/sparse.hpp"
#include "serve/cache.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "sim/engine.hpp"
#include "waveform/render.hpp"

#include <cmath>
#include <iostream>
#include <limits>

namespace ssnbench::layers {

using namespace ssnkit;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void count(const circuit::Circuit& ckt, const sim::SolverStats& s,
           PointCounts& c) {
  c.unknowns = ckt.unknown_count();
  c.accepted = double(s.accepted_steps);
  c.rejected = double(s.rejected_steps);
  c.newton_iters = double(s.newton_iterations);
  c.newton_failures = double(s.newton_failures);
  c.dc_iters = double(s.dc_iterations);
  c.residual_checks = double(s.residual_checks);
  c.refinements = double(s.residual_refinements);
  c.mosfets = 0;
  for (const auto& el : ckt.elements())
    if (dynamic_cast<const circuit::Mosfet*>(el.get()) != nullptr) ++c.mosfets;
}

/// Time `fn` often enough to cover about a millisecond; ns per call.
template <typename Fn>
double time_per_call(Fn&& fn) {
  long calls = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t = t0;
  while (t - t0 < 1000000 || calls < 8) {
    fn();
    ++calls;
    t = now_ns();
  }
  return double(t - t0) / double(calls);
}

/// Stamp the circuit at its DC operating point, factor it, and time the
/// numeric refactorization + solve the engine repeats every Newton
/// iteration (the bench_perf BM_MnaAssemblySparse fixture minus stamping).
Probe numeric_probe(circuit::Circuit& ckt) {
  const numeric::Vector x = sim::dc_operating_point(ckt).solution;
  const std::size_t n = std::size_t(ckt.unknown_count());
  numeric::StampedMatrix sm;
  numeric::Vector b(n);
  numeric::Vector x_out(n);
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kDc;
  ctx.x = &x;
  ctx.sa = &sm;
  ctx.b = &b;
  sm.begin_pattern(n);
  for (const auto& el : ckt.elements()) el->stamp(ctx);
  sm.finalize_pattern();
  sm.clear();
  b.fill(0.0);
  for (const auto& el : ckt.elements()) el->stamp(ctx);
  numeric::SparseFactor factor;
  factor.factorize(sm);
  Probe p;
  p.factor_nnz = double(factor.factor_nonzeros());
  p.refactor_solve_ns = time_per_call([&] {
    factor.refactorize(sm);
    factor.solve(b, x_out);
  });
  return p;
}

circuit::SsnBenchSpec mc_spec(const analysis::Calibration& cal, int n,
                              const McSample& s, core::SsnScenario& scenario) {
  // The sample exactly as monte_carlo_vmax_sim builds it.
  process::Package pkg = process::package_pga();
  pkg.inductance *= s.l_factor;
  pkg.capacitance *= s.c_factor;
  const double tr = 0.1e-9 * s.rise_factor;
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.package = pkg;
  spec.golden = cal.golden;
  spec.n_drivers = n;
  spec.input_rise_time = tr;
  spec.driver_width_mult = s.width_factor;
  spec.include_package_c = true;
  scenario = analysis::make_scenario(cal, pkg, n, tr, true);
  scenario.device.k *= s.width_factor;
  return spec;
}

}  // namespace

int cli_main(const std::vector<std::string>& argv) {
  return cli::run_cli(argv, std::cout, std::cerr);
}

double device_eval_ns(double width) {
  const auto model = process::tech_180nm().make_golden(
      process::GoldenKind::kAlphaPower, width);
  double sink = 0.0;
  const double ns_per_sweep = time_per_call([&] {
    for (int g = 0; g < 16; ++g)
      for (int d = 0; d < 16; ++d)
        sink += model->evaluate(0.1125 * g, 0.1125 * d, -0.05 * (g % 3)).gm;
  });
  if (!std::isfinite(sink)) return kNaN;
  return ns_per_sweep / 256.0;
}

// --- mc --sim ----------------------------------------------------------------

struct McReplay::Impl {
  analysis::Calibration cal;
  int n = 0;
};

McReplay::McReplay(Tracer& tracer, int n_drivers) : impl_(new Impl) {
  const Scope span(tracer, "analysis.calibrate", -1);
  impl_->cal = analysis::calibrate(process::tech_180nm(),
                                   process::GoldenKind::kAlphaPower);
  impl_->n = n_drivers;
}

McReplay::~McReplay() = default;

double McReplay::sample(Tracer& tracer, long item, const McSample& s,
                        PointCounts& counts) {
  core::SsnScenario scenario;
  const circuit::SsnBenchSpec spec = mc_spec(impl_->cal, impl_->n, s, scenario);
  // measure_ssn_resilient's first rung, call by call.
  int span = tracer.begin("circuit.build", item);
  circuit::SsnBench bench = circuit::make_ssn_testbench(spec);
  tracer.end(span);

  sim::TransientOptions topts;
  topts.dt_max = spec.input_rise_time / 200.0;
  topts.t_start = 0.0;
  topts.t_stop = bench.t_ramp_end;
  span = tracer.begin("sim.transient", item);
  const sim::TransientRun run = sim::run_transient_ex(bench.circuit, topts);
  tracer.end(span);
  count(bench.circuit, run.result.stats, counts);
  if (!run.ok()) return kNaN;

  analysis::SsnMeasurement m;
  span = tracer.begin("waveform.extract", item);
  m.stats = run.result.stats;
  m.vssi = run.result.waveform(bench.vssi_node);
  m.i_l = run.result.waveform("I(" + bench.inductor_name + ")");
  m.vin = run.result.waveform(bench.input_nodes.front());
  m.vout = run.result.waveform(bench.output_nodes.front());
  const auto peak = m.vssi.maximum_in(0.0, bench.t_ramp_end);
  m.v_max = peak.value;
  m.t_at_max = peak.t;
  m.trust = run.result.trust;
  tracer.end(span);

  span = tracer.begin("verify.physics", item);
  analysis::verify_measurement(m, scenario);
  tracer.end(span);
  return m.v_max;
}

Probe McReplay::probe(const McSample& s) {
  core::SsnScenario scenario;
  circuit::SsnBench bench =
      circuit::make_ssn_testbench(mc_spec(impl_->cal, impl_->n, s, scenario));
  return numeric_probe(bench.circuit);
}

// --- simulate ----------------------------------------------------------------

double netlist_item(Tracer& tracer, long item, const std::string& text,
                    PointCounts& counts) {
  circuit::ParseOptions popts;
  popts.filename = "item.cir";
  int span = tracer.begin("circuit.parse", item);
  circuit::NetlistParseResult parsed = circuit::parse_netlist_ex(text, popts);
  tracer.end(span);
  if (!parsed.ok || !parsed.netlist.tran) return kNaN;

  sim::TransientOptions topts;
  topts.t_stop = parsed.netlist.tran->tstop;
  topts.dt_initial = parsed.netlist.tran->tstep;
  span = tracer.begin("sim.transient", item);
  const sim::TransientRun run =
      sim::run_transient_ex(parsed.netlist.circuit, topts);
  tracer.end(span);
  count(parsed.netlist.circuit, run.result.stats, counts);
  if (!run.ok()) return kNaN;

  span = tracer.begin("waveform.extract", item);
  const waveform::Waveform wave = run.result.waveform("vssi");
  const double v_min = wave.minimum().value;
  const double v_max = wave.maximum().value;
  tracer.end(span);

  span = tracer.begin("waveform.render", item);
  io::ChartOptions copts;
  copts.title = "v(vssi)";
  copts.y_label = "vssi";
  const std::string chart = waveform::ascii_chart(wave, copts);
  tracer.end(span);
  return chart.empty() || !(v_min <= v_max) ? kNaN : v_max;
}

Probe netlist_probe(const std::string& text) {
  circuit::NetlistParseResult parsed = circuit::parse_netlist_ex(text);
  if (!parsed.ok) return Probe{};
  return numeric_probe(parsed.netlist.circuit);
}

// --- serve -------------------------------------------------------------------

struct ServeReplay::Impl {
  serve::ResultCache cache{serve::ServerConfig{}.cache_capacity};
  serve::CalibrationCache calibrations;
};

ServeReplay::ServeReplay(Tracer& tracer) : impl_(new Impl) {
  const Scope span(tracer, "analysis.calibrate", -1);
  impl_->calibrations.get("180nm", "alpha");
}

ServeReplay::~ServeReplay() = default;

ServeReplay::Result ServeReplay::item(Tracer& tracer, long item,
                                      const std::string& line) {
  // Server::process in thread mode, call by call.
  Result r;
  const std::int64_t t0 = now_ns();
  int span = tracer.begin("serve.parse", item);
  const serve::RequestParse parsed = serve::parse_request(line);
  tracer.end(span);
  if (!parsed.ok) return r;
  const serve::ServeRequest& req = parsed.request;

  span = tracer.begin("serve.cache", item);
  const std::uint64_t key = serve::cache_key(req);
  std::optional<std::string> hit = impl_->cache.get(key);
  verify::Verdict verdict = verify::Verdict::kUnverified;
  if (hit && (!serve::extract_trust_verdict(*hit, verdict) ||
              verify::verdict_rank(verdict) >
                  verify::verdict_rank(verify::Verdict::kRefined)))
    hit.reset();
  tracer.end(span);

  std::string fragment;
  if (hit) {
    fragment = std::move(*hit);
    r.cached = true;
  } else {
    const char* name = req.cmd == "mc"  ? "serve.execute.mc"
                       : req.sim        ? "serve.execute.sim"
                                        : "serve.execute.estimate";
    span = tracer.begin(name, item);
    try {
      support::RunContext ctx;
      fragment = serve::execute_request(req, impl_->calibrations, &ctx);
    } catch (const std::exception&) {
      tracer.end(span);
      return r;
    }
    tracer.end(span);
    span = tracer.begin("serve.cache", item);
    impl_->cache.put(key, fragment);
    tracer.end(span);
  }

  span = tracer.begin("serve.render", item);
  r.response = serve::render_ok(req.id, fragment, r.cached,
                                (now_ns() - t0) / 1000);
  tracer.end(span);
  r.ok = true;
  return r;
}

IsolationProbe isolation_probe(const std::vector<std::string>& lines) {
  IsolationProbe out;
  if (lines.empty()) return out;
  std::vector<serve::ServeRequest> reqs;
  for (const std::string& line : lines) {
    const serve::RequestParse parsed = serve::parse_request(line);
    if (!parsed.ok) {
      out.ok = false;
      return out;
    }
    reqs.push_back(parsed.request);
  }
  serve::SupervisorConfig config;
  config.workers = 1;
  serve::Supervisor supervisor(config, {});
  serve::CalibrationCache calibrations;
  calibrations.get("180nm", "alpha");

  const auto via_worker = [&](const serve::ServeRequest& req) {
    const std::int64_t t0 = now_ns();
    const serve::WorkerOutcome wo = supervisor.execute(req, 0.0);
    if (wo.status != serve::WorkerOutcome::Status::kOk) out.ok = false;
    return double(now_ns() - t0);
  };
  const auto in_process = [&](const serve::ServeRequest& req) {
    const std::int64_t t0 = now_ns();
    try {
      serve::execute_request(req, calibrations, nullptr);
    } catch (const std::exception&) {
      out.ok = false;
    }
    return double(now_ns() - t0);
  };

  // The fresh worker fits its own calibration on its first request.
  const double first = via_worker(reqs.front());
  std::vector<double> steady;
  for (int i = 0; i < 8; ++i) steady.push_back(via_worker(reqs.front()));
  out.worker_cold_ms = (first - median(steady)) * 1e-6;

  std::vector<double> rtt, ratio;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Alternate which side runs first so neither always finds warm caches.
    double t_in = 0.0, t_sup = 0.0;
    if (i % 2 == 0) {
      t_in = in_process(reqs[i]);
      t_sup = via_worker(reqs[i]);
    } else {
      t_sup = via_worker(reqs[i]);
      t_in = in_process(reqs[i]);
    }
    rtt.push_back(t_sup - t_in);
    ratio.push_back((t_sup - t_in) / t_in);
  }
  out.rtt_us = median(rtt) * 1e-3;
  out.overhead_ratio = median(ratio);
  supervisor.shutdown();
  return out;
}

}  // namespace ssnbench::layers
