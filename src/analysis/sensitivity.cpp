#include "analysis/sensitivity.hpp"

#include "analysis/design.hpp"
#include "core/l_only_model.hpp"
#include "support/diagnostics.hpp"
#include "support/parallel.hpp"

#include <array>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace ssnkit::analysis {

SsnSensitivities l_only_sensitivities(const core::SsnScenario& scenario) {
  core::SsnScenario s = scenario;
  s.capacitance = 0.0;
  s.validate();

  // V = A*(1 - e^{-x}) with A = N*L*K*S and x = (vdd - V_x)/(lambda*A).
  const double a = s.v_inf();
  const double x = (s.vdd - s.device.vx) / (s.device.lambda * a);
  const double em = std::exp(-x);
  const double denom = 1.0 - em;
  if (denom <= 0.0)
    throw std::runtime_error("l_only_sensitivities: degenerate scenario");

  SsnSensitivities out;
  // N, L, K, S all enter only through A (the beta-equivalence of Eqn 9):
  // E_A = [1 - e^{-x}(1+x)] / (1 - e^{-x}).
  const double e_a = (1.0 - em * (1.0 + x)) / denom;
  out.wrt_drivers = e_a;
  out.wrt_inductance = e_a;
  out.wrt_slope = e_a;
  out.wrt_k = e_a;
  // lambda enters only x: E_lambda = -x e^{-x} / (1 - e^{-x}).
  out.wrt_lambda = -x * em / denom;
  // V_x shifts the active ramp: E_vx = E_lambda * vx/(vdd - vx).
  out.wrt_vx = out.wrt_lambda * s.device.vx / (s.vdd - s.device.vx);
  out.wrt_capacitance = 0.0;
  return out;
}

namespace {

/// Central-difference elasticity d ln V / d ln p via a parameter mutator.
template <typename Setter>
double elasticity(const core::SsnScenario& s, double value, double rel_step,
                  const Setter& set) {
  const double h = value * rel_step;
  core::SsnScenario up = s;
  set(up, value + h);
  core::SsnScenario dn = s;
  set(dn, value - h);
  const double v_up = predict_vmax(up);
  const double v_dn = predict_vmax(dn);
  const double v0 = predict_vmax(s);
  return (v_up - v_dn) / (2.0 * h) * value / v0;
}

}  // namespace

SsnSensitivities lc_sensitivities(const core::SsnScenario& scenario,
                                  double rel_step, int threads,
                                  const support::RunContext* run_ctx) {
  scenario.validate();
  if (!(scenario.capacitance > 0.0))
    throw std::invalid_argument("lc_sensitivities: capacitance must be > 0 "
                                "(use l_only_sensitivities)");
  if (!(rel_step > 0.0 && rel_step < 0.1))
    throw std::invalid_argument("lc_sensitivities: rel_step out of range");

  // The six stencils are independent; each writes its own slot, so the
  // parallel evaluation is identical to serial for any thread count.
  using Setter = std::function<void(core::SsnScenario&, double)>;
  struct Param {
    double value = 0.0;
    Setter set;
  };
  // N is discrete in the scenario; scale through (K, lambda-preserving)
  // current instead: N*K enters every formula as a product, so perturbing K
  // with fixed N measures the same elasticity.
  const std::array<Param, 6> params = {{
      {scenario.device.k,
       [](core::SsnScenario& s, double v) { s.device.k = v; }},
      {scenario.inductance,
       [](core::SsnScenario& s, double v) { s.inductance = v; }},
      {scenario.capacitance,
       [](core::SsnScenario& s, double v) { s.capacitance = v; }},
      {scenario.slope, [](core::SsnScenario& s, double v) { s.slope = v; }},
      {scenario.device.lambda,
       [](core::SsnScenario& s, double v) { s.device.lambda = v; }},
      {scenario.device.vx,
       [](core::SsnScenario& s, double v) { s.device.vx = v; }},
  }};
  std::array<double, 6> e{};
  const support::BatchStatus status = support::parallel_for_index(
      threads, params.size(),
      [&](std::size_t i) {
        e[i] = elasticity(scenario, params[i].value, rel_step, params[i].set);
      },
      run_ctx);
  if (status.stopped) {
    // All six elasticities or nothing: a partial vector would silently
    // report zeros for the missing parameters.
    const support::StopReason stop = run_ctx->stop_reason();
    throw support::SolverError(
        stop == support::StopReason::kDeadlineExpired
            ? support::SolverErrorKind::kDeadlineExpired
            : support::SolverErrorKind::kCancelled,
        "lc_sensitivities stopped after " + std::to_string(status.completed) +
            "/6 stencils");
  }

  SsnSensitivities out;
  out.wrt_drivers = e[0];
  out.wrt_k = out.wrt_drivers;
  out.wrt_inductance = e[1];
  out.wrt_capacitance = e[2];
  out.wrt_slope = e[3];
  out.wrt_lambda = e[4];
  out.wrt_vx = e[5];
  return out;
}

SsnSensitivities closed_form_sensitivities(const core::SsnScenario& s) {
  return s.capacitance > 0.0 ? lc_sensitivities(s) : l_only_sensitivities(s);
}

}  // namespace ssnkit::analysis
