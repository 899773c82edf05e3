#include "serve/handlers.hpp"

#include "analysis/montecarlo.hpp"
#include "analysis/measure.hpp"
#include "analysis/sweeps.hpp"
#include "sim/recovery.hpp"
#include "verify/trust.hpp"

#include <chrono>
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
  analysis::SsnEstimate est =
      analysis::estimate_closed_form(analysis::make_scenario(
          cal, pkg, req.n_drivers, req.rise_time, req.include_c));
  std::string out = "{";
  out += "\"n\":" + std::to_string(req.n_drivers);
  out += ",\"l\":" + json_number(pkg.inductance);
  out += ",\"c\":" + json_number(est.scenario.capacitance);
  out += ",\"slope\":" + json_number(est.scenario.slope);
  out += ",\"beta\":" + json_number(est.scenario.beta());
  out += est.lc() ? ",\"model\":\"lc\"" : ",\"model\":\"l-only\"";
  out += ",\"v_max\":" + json_number(est.v_max);
  if (est.lc()) {
    out += ",\"zeta\":" + json_number(est.zeta);
    out += ",\"case\":\"" + json_escape(core::to_string(est.max_case)) + "\"";
    out += ",\"c_crit\":" + json_number(est.scenario.critical_capacitance());
  }
  if (req.sim) {
    const auto m =
        analysis::simulate_estimate(cal, pkg, req.rise_time, est, ctx);
    out += ",\"v_max_sim\":" + json_number(m.measurement.v_max);
    out += ",\"fidelity\":\"" +
           json_escape(sim::to_string(m.fidelity)) + "\"";
  }
  out += ",\"trust\":" + render_trust(est.trust);
  out += "}";
  return out;
}

std::string handle_mc(const ServeRequest& req,
                      const analysis::Calibration& cal,
                      const process::Package& pkg,
                      const support::RunContext* ctx) {
  const auto scenario = analysis::make_scenario(cal, pkg, req.n_drivers,
                                                req.rise_time, req.include_c);
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
  config.include_package_c = req.include_c;
  config.driver_counts = analysis::driver_ladder(req.max_n);
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
