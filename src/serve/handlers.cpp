#include "serve/handlers.hpp"

#include "analysis/montecarlo.hpp"
#include "analysis/measure.hpp"
#include "analysis/sweeps.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "sim/recovery.hpp"
#include "verify/physics.hpp"
#include "verify/trust.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

namespace ssnkit::serve {

std::shared_ptr<const analysis::Calibration> CalibrationCache::get(
    const std::string& tech, const std::string& golden) {
  const std::string key = tech + '|' + golden;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fits_.find(key);
    if (it != fits_.end()) return it->second;
  }
  // Fit outside the lock: two threads may race to fit the same pair; the
  // fits are deterministic, so whichever publishes first wins and the loser
  // just did redundant work — better than serializing unrelated fits.
  const process::GoldenKind kind = golden == "bsim"
                                       ? process::GoldenKind::kBsimLite
                                       : process::GoldenKind::kAlphaPower;
  auto fitted = std::make_shared<const analysis::Calibration>(
      analysis::calibrate(process::technology_by_name(tech), kind));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = fits_.emplace(key, std::move(fitted));
  (void)inserted;
  return it->second;
}

namespace {

process::Package package_for(const ServeRequest& req) {
  process::Package pkg = process::package_by_name(req.package);
  if (req.pads > 1) pkg = pkg.with_ground_pads(req.pads);
  if (req.inductance >= 0.0) pkg.inductance = req.inductance;
  if (req.capacitance >= 0.0) pkg.capacitance = req.capacitance;
  return pkg;
}

/// Closed-form self-check: the Table 1 / Eqn 7 peak formula and a sampled
/// waveform of the same model must agree on the maximum. A disagreement
/// means the damping case was mis-selected (or a formula was evaluated
/// outside its validity region); it downgrades trust instead of serving a
/// confidently wrong number. The 5 % bar leaves room for the sampling
/// resolution of the waveform's peak.
void check_formula_vs_waveform(double v_model, const waveform::Waveform& vn,
                               double t_end, verify::TrustReport& trust) {
  const double sampled = vn.maximum_in(0.0, t_end).value;
  const double scale = std::max(std::abs(v_model), std::abs(sampled));
  if (!(scale > 0.0)) return;
  if (!(std::abs(v_model - sampled) <= 0.05 * scale)) {
    trust.downgrade(verify::Verdict::kDegraded);
    trust.note(
        "SSN-W073: closed-form v_max disagrees with its own sampled "
        "waveform maximum (mis-selected damping case?)");
  }
}

/// Throw the stop that drained a batch as a typed SolverError, so the
/// server's one catch site maps every cooperative stop onto SSN-E066.
void throw_stop(support::StopReason stop) {
  const auto kind = stop == support::StopReason::kDeadlineExpired
                        ? support::SolverErrorKind::kDeadlineExpired
                        : support::SolverErrorKind::kCancelled;
  throw support::SolverError(kind, "request stopped before completion");
}

std::string handle_estimate(const ServeRequest& req,
                            const analysis::Calibration& cal,
                            const process::Package& pkg,
                            const support::RunContext* ctx) {
  const bool with_c = req.include_c && pkg.capacitance > 0.0;
  const auto scenario = analysis::make_scenario(cal, pkg, req.n_drivers,
                                                req.rise_time, with_c);
  // Every result fragment carries its trust verdict. The closed form starts
  // verified-by-self-check; a simulator verify merges the engine's report
  // and the model-vs-simulator cross-check on top.
  verify::TrustReport trust;
  trust.verdict = verify::Verdict::kVerified;
  double v_model = 0.0;
  std::string out = "{";
  out += "\"n\":" + std::to_string(req.n_drivers);
  out += ",\"l\":" + json_number(pkg.inductance);
  out += ",\"c\":" + json_number(with_c ? pkg.capacitance : 0.0);
  out += ",\"slope\":" + json_number(scenario.slope);
  out += ",\"beta\":" + json_number(scenario.beta());
  if (with_c) {
    const core::LcModel model(scenario);
    v_model = model.v_max();
    out += ",\"model\":\"lc\"";
    out += ",\"v_max\":" + json_number(v_model);
    out += ",\"zeta\":" + json_number(model.zeta());
    out += ",\"case\":\"" +
           json_escape(core::to_string(model.max_case())) + "\"";
    out += ",\"c_crit\":" + json_number(scenario.critical_capacitance());
    check_formula_vs_waveform(v_model, model.vn_waveform(1024),
                              scenario.t_ramp_end(), trust);
  } else {
    const core::LOnlyModel model(scenario);
    v_model = model.v_max();
    out += ",\"model\":\"l-only\"";
    out += ",\"v_max\":" + json_number(v_model);
    check_formula_vs_waveform(v_model, model.vn_waveform(1024),
                              scenario.t_ramp_end(), trust);
  }
  if (req.sim) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.package = pkg;
    spec.golden = cal.golden;
    spec.n_drivers = req.n_drivers;
    spec.input_rise_time = req.rise_time;
    spec.include_package_c = with_c;
    analysis::MeasureOptions opts;
    opts.transient.run_ctx = ctx;
    const auto m = analysis::measure_ssn(spec, opts, &scenario);
    // A failed measurement, a cancelled/deadlined one included (measure_ssn
    // never degrades a stop to the analytic rung), surfaces as its error.
    if (!m.ok()) throw *m.error;
    // The engine's solve/physics verdict, then the paper's 3 % bar between
    // the closed form and the simulator (SSN-W074 on disagreement).
    trust.merge(m.measurement.trust);
    verify::cross_check_closed_form(v_model, m.measurement.v_max, trust);
    out += ",\"v_max_sim\":" + json_number(m.measurement.v_max);
    out += ",\"fidelity\":\"" +
           json_escape(sim::to_string(m.fidelity)) + "\"";
  }
  out += ",\"trust\":" + render_trust(trust);
  out += "}";
  return out;
}

std::string handle_mc(const ServeRequest& req,
                      const analysis::Calibration& cal,
                      const process::Package& pkg,
                      const support::RunContext* ctx) {
  const bool with_c = req.include_c && pkg.capacitance > 0.0;
  const auto scenario = analysis::make_scenario(cal, pkg, req.n_drivers,
                                                req.rise_time, with_c);
  analysis::MonteCarloOptions opts;
  opts.samples = req.samples;
  opts.seed = unsigned(req.seed);
  opts.threads = 1;  // the daemon parallelizes across requests, not within
  opts.run_ctx = ctx;
  const auto mc = analysis::monte_carlo_vmax(scenario, opts);
  if (mc.stop != support::StopReason::kNone) throw_stop(mc.stop);
  verify::TrustReport trust;
  trust.verdict = verify::Verdict::kVerified;
  trust.ci95 = mc.ci95;
  std::string out = "{";
  out += "\"samples\":" + std::to_string(mc.completed);
  out += ",\"mean\":" + json_number(mc.mean);
  out += ",\"stddev\":" + json_number(mc.stddev);
  out += ",\"min\":" + json_number(mc.min);
  out += ",\"max\":" + json_number(mc.max);
  out += ",\"p95\":" + json_number(mc.p95);
  out += ",\"p99\":" + json_number(mc.p99);
  out += ",\"ci95\":" + json_number(mc.ci95);
  out += ",\"region_flip_fraction\":" + json_number(mc.region_flip_fraction);
  out += ",\"trust\":" + render_trust(trust);
  out += "}";
  return out;
}

std::string handle_sweep_n(const ServeRequest& req,
                           const analysis::Calibration& cal,
                           const process::Package& pkg,
                           const support::RunContext* ctx) {
  analysis::DriverSweepConfig config;
  config.tech = cal.tech;
  config.package = pkg;
  config.golden = cal.golden;
  config.input_rise_time = req.rise_time;
  config.include_package_c = req.include_c && pkg.capacitance > 0.0;
  config.driver_counts.clear();
  for (int n = 1; n <= req.max_n; n += (n < 4 ? 1 : 2))
    config.driver_counts.push_back(n);
  config.batch.threads = 1;  // see handle_mc
  config.batch.run_ctx = ctx;
  const auto result = analysis::run_driver_sweep(config);
  if (result.summary.stop != support::StopReason::kNone)
    throw_stop(result.summary.stop);
  std::string out = "{\"rows\":[";
  bool first = true;
  for (const auto& row : result.rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"n\":" + std::to_string(row.n);
    out += ",\"sim\":" + json_number(row.sim);
    out += ",\"this_work\":" + json_number(row.this_work);
    out += ",\"vemuru\":" + json_number(row.vemuru);
    out += ",\"song\":" + json_number(row.song);
    out += ",\"senthinathan\":" + json_number(row.senthinathan);
    out += ",\"fidelity\":\"" +
           json_escape(sim::to_string(row.fidelity)) + "\"}";
  }
  out += "],\"full_fidelity\":" +
         std::to_string(result.summary.full_fidelity);
  out += ",\"recovered\":" + std::to_string(result.summary.recovered);
  out += ",\"analytic\":" + std::to_string(result.summary.analytic);
  out += ",\"failed\":" + std::to_string(result.summary.failed);
  // Sweep-level trust from the per-row fidelities: analytic rows carry no
  // independent verification, failed rows poison the comparison table.
  verify::TrustReport trust;
  trust.verdict = verify::Verdict::kVerified;
  if (result.summary.analytic > 0) {
    trust.downgrade(verify::Verdict::kUnverified);
    trust.note(std::to_string(result.summary.analytic) +
               " row(s) degraded to the closed-form model");
  }
  if (result.summary.failed > 0) {
    trust.downgrade(verify::Verdict::kDegraded);
    trust.note(std::to_string(result.summary.failed) +
               " row(s) failed outright");
  }
  out += ",\"trust\":" + render_trust(trust);
  out += "}";
  return out;
}

}  // namespace

std::string execute_request(const ServeRequest& request,
                            CalibrationCache& calibrations,
                            const support::RunContext* ctx) {
  const auto cal = calibrations.get(request.tech, request.golden);
  const process::Package pkg = package_for(request);
  if (request.cmd == "estimate")
    return handle_estimate(request, *cal, pkg, ctx);
  if (request.cmd == "mc") return handle_mc(request, *cal, pkg, ctx);
  return handle_sweep_n(request, *cal, pkg, ctx);
}

WorkerOutcome respond(const ServeRequest& request,
                      CalibrationCache& calibrations,
                      support::RunContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  if (request.deadline_s > 0.0) ctx.set_timeout(request.deadline_s);
  WorkerOutcome out;
  out.status = WorkerOutcome::Status::kError;
  try {
    out.fragment = execute_request(request, calibrations, &ctx);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    out.response = render_ok(request.id, out.fragment, false, elapsed.count());
    out.status = WorkerOutcome::Status::kOk;
  } catch (const support::SolverError& e) {
    out.response = render_solver_error(request.id, e);
    out.cancelled = support::is_stop_kind(e.kind());
  } catch (const NonFiniteJsonError& e) {
    // A NaN/inf reached the serializer: the result is corrupt and is
    // refused with its own typed code rather than rendered as null.
    out.response = render_error(request.id, "SSN-E067", e.what());
  } catch (const std::exception& e) {
    out.response = render_error(request.id, "SSN-E065", e.what());
  }
  return out;
}

}  // namespace ssnkit::serve
