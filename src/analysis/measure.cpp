#include "analysis/measure.hpp"

#include "analysis/batch.hpp"
#include "core/l_only_model.hpp"
#include "support/contracts.hpp"
#include "verify/physics.hpp"

#include <algorithm>
#include <utility>

namespace ssnkit::analysis {

namespace {

// Samples on each closed-form waveform of the analytic rung.
constexpr std::size_t kAnalyticPoints = 512;

/// The paper's quantities off a completed transient of `bench`.
SsnMeasurement extract(const circuit::SsnBench& bench,
                       const sim::TransientResult& result) {
  SsnMeasurement m;
  m.stats = result.stats;
  m.vssi = result.waveform(bench.vssi_node);
  m.i_l = result.waveform("I(" + bench.inductor_name + ")");
  m.vin = result.waveform(bench.input_nodes.front());
  m.vout = result.waveform(bench.output_nodes.front());
  const auto peak = m.vssi.maximum_in(0.0, bench.t_ramp_end);
  m.v_max = peak.value;
  m.t_at_max = peak.t;
  m.trust = result.trust;
  return m;
}

}  // namespace

ResilientMeasurement measure_ssn(const circuit::SsnBenchSpec& spec,
                                 const MeasureOptions& opts,
                                 const core::SsnScenario* analytic_fallback) {
  circuit::SsnBench bench = circuit::make_ssn_testbench(spec);
  return measure_ssn(bench, opts, analytic_fallback);
}

ResilientMeasurement measure_ssn(circuit::SsnBench& bench,
                                 const MeasureOptions& opts,
                                 const core::SsnScenario* analytic_fallback) {
  SSN_REQUIRE(opts.overshoot_factor >= 1.0,
              "measure_ssn: overshoot_factor must be >= 1");

  sim::TransientOptions topts = opts.transient;
  topts.t_start = 0.0;
  topts.t_stop = bench.t_ramp_end * opts.overshoot_factor;

  sim::RecoveryOutcome run = sim::run_transient_resilient(bench.circuit, topts);

  ResilientMeasurement out;
  out.fidelity = run.fidelity;
  out.attempts = std::move(run.attempts);
  if (run.ok()) {
    out.measurement = extract(bench, run.result);
    // Physics invariants need the calibrated scenario; the analytic
    // fallback parameter is exactly that when the caller supplied one.
    if (analytic_fallback != nullptr)
      verify_measurement(out.measurement, *analytic_fallback);
    return out;
  }

  out.error = std::move(run.error);
  // A cooperative stop (cancel / deadline) is not a numerical failure: the
  // analytic rung must not paper over it, or an interrupted sample would be
  // reported as kAnalytic and a resumed run could never reproduce the
  // uninterrupted result. The driver treats stop-kind failures as "not run".
  if (analytic_fallback != nullptr &&
      !support::is_stop_kind(out.error->kind())) {
    out.measurement = analytic_measurement(*analytic_fallback);
    out.fidelity = sim::Fidelity::kAnalytic;
    out.attempts.push_back(support::RecoveryAttempt{
        "analytic", true, "degraded to the closed-form model"});
  }
  return out;
}

SsnEstimate estimate_closed_form(const core::SsnScenario& scenario) {
  SsnEstimate out;
  out.scenario = scenario;
  if (out.lc()) {
    const core::LcModel model(scenario);
    out.v_max = model.v_max();
    out.zeta = model.zeta();
    out.max_case = model.max_case();
  } else {
    out.v_max = core::LOnlyModel(scenario).v_max();
  }
  out.trust.verdict = verify::Verdict::kVerified;
  verify::check_closed_form_peak(scenario, out.v_max, out.trust);
  return out;
}

ResilientMeasurement simulate_estimate(const Calibration& cal,
                                       const process::Package& package,
                                       double input_rise_time,
                                       SsnEstimate& estimate,
                                       const support::RunContext* ctx) {
  const BatchPoint point =
      bench_point(cal, package, estimate.scenario.n_drivers, input_rise_time,
                  estimate.lc(), "estimate");
  MeasureOptions opts;
  opts.transient.run_ctx = ctx;
  ResilientMeasurement m = measure_ssn(point.spec, opts, &estimate.scenario);
  if (!m.ok()) throw *m.error;  // a stop is never degraded to kAnalytic
  estimate.trust.merge(m.measurement.trust);
  verify::cross_check_closed_form(estimate.v_max, m.measurement.v_max,
                                  estimate.trust);
  return m;
}

SsnMeasurement analytic_measurement(const core::SsnScenario& scenario) {
  scenario.validate();
  SsnMeasurement m;
  const auto fill = [&](const auto& model) {
    m.v_max = model.v_max();
    m.vssi = model.vn_waveform(kAnalyticPoints);
    m.i_l = model.current_waveform(kAnalyticPoints);
  };
  if (scenario.capacitance > 0.0)
    fill(core::LcModel(scenario));
  else
    fill(core::LOnlyModel(scenario));
  // v_max comes from the exact Table 1 / Eqn 7 formula; the peak *time* is
  // read off the sampled waveform (good to the sampling resolution).
  m.t_at_max = m.vssi.maximum_in(0.0, scenario.t_ramp_end()).t;
  m.vin = waveform::Waveform::from_function(
      [&](double t) { return std::min(scenario.slope * t, scenario.vdd); },
      0.0, scenario.t_ramp_end(), kAnalyticPoints);
  // No closed form exists for the driver output node; it stays empty.
  return m;
}

void verify_measurement(SsnMeasurement& m, const core::SsnScenario& scenario) {
  const verify::PhysicsFindings findings = verify::check_ground_path(
      scenario, m.vssi, m.i_l, m.v_max, m.t_at_max);
  verify::apply(findings, m.trust);
}

}  // namespace ssnkit::analysis
