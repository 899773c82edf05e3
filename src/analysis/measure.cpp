#include "analysis/measure.hpp"

#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
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

SsnMeasurement analytic_measurement(const core::SsnScenario& scenario) {
  scenario.validate();
  SsnMeasurement m;
  if (scenario.capacitance > 0.0) {
    const core::LcModel model(scenario);
    m.v_max = model.v_max();
    m.vssi = model.vn_waveform(kAnalyticPoints);
    m.i_l = model.current_waveform(kAnalyticPoints);
  } else {
    const core::LOnlyModel model(scenario);
    m.v_max = model.v_max();
    m.vssi = model.vn_waveform(kAnalyticPoints);
    m.i_l = model.current_waveform(kAnalyticPoints);
  }
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
