#include "sim/recovery.hpp"

#include <algorithm>
#include <utility>

namespace ssnkit::sim {

using support::RecoveryAttempt;
using support::SolverDiagnostics;
using support::SolverError;

const char* to_string(Fidelity fidelity) {
  switch (fidelity) {
    case Fidelity::kFullDevice: return "full-device";
    case Fidelity::kTightenedDamping: return "tighten-damping";
    case Fidelity::kAlternateIntegrator: return "alternate-integrator";
    case Fidelity::kGminRecovery: return "gmin-recovery";
    case Fidelity::kReducedTimestep: return "reduced-timestep";
    case Fidelity::kAnalytic: return "analytic";
    case Fidelity::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

// The ladder's fixed factors (see the rung table in recovery.hpp).
constexpr double kDampingFactor = 0.25;  // max_voltage_step on rung 1
constexpr int kIterationBoost = 2;       // max_iterations on rung 1
constexpr double kDtMaxShrink = 0.1;     // dt_max on rung 4

std::string describe(const TransientRun& run) {
  if (run.ok())
    return "accepted " + std::to_string(run.result.stats.accepted_steps) +
           " steps, " + std::to_string(run.result.stats.newton_failures) +
           " newton failures";
  return run.error->what();
}

}  // namespace

RecoveryOutcome run_transient_resilient(circuit::Circuit& ckt,
                                        const TransientOptions& opts) {
  RecoveryOutcome out;
  TransientOptions current = opts;
  std::optional<SolverError> last_error;

  // Try one rung; returns true when the ladder can stop climbing.
  const auto attempt = [&](const char* rung, Fidelity fidelity) -> bool {
    TransientRun run = run_transient_ex(ckt, current);
    out.attempts.push_back(RecoveryAttempt{rung, run.ok(), describe(run)});
    if (run.ok()) {
      out.result = std::move(run.result);
      out.fidelity = fidelity;
      return true;
    }
    last_error = std::move(run.error);
    return false;
  };

  if (attempt("full-device", Fidelity::kFullDevice)) return out;
  out.fidelity = Fidelity::kFailed;
  // Non-retryable (structurally singular circuits, cooperative stops):
  // climbing the ladder would re-run the identical failure four more times
  // for nothing. The analytic rung in analysis::measure_ssn can still apply.
  if (last_error->retryable()) {
    current.newton.max_voltage_step =
        opts.newton.max_voltage_step * kDampingFactor;
    current.newton.max_iterations =
        opts.newton.max_iterations * kIterationBoost;
    if (attempt("tighten-damping", Fidelity::kTightenedDamping)) return out;

    current.method = opts.method == circuit::Integrator::kGear2
                         ? circuit::Integrator::kBackwardEuler
                         : circuit::Integrator::kGear2;
    if (attempt("alternate-integrator", Fidelity::kAlternateIntegrator))
      return out;

    current.newton_gmin_recovery = true;
    if (attempt("gmin-recovery", Fidelity::kGminRecovery)) return out;

    const double span = opts.t_stop - opts.t_start;
    const double base_dt_max = opts.dt_max > 0.0 ? opts.dt_max : span / 50.0;
    current.dt_max = base_dt_max * kDtMaxShrink;
    current.dt_initial = std::min(current.dt_initial, current.dt_max);
    if (attempt("reduced-timestep", Fidelity::kReducedTimestep)) return out;
  }

  // Re-wrap the last error with the full recovery trail attached so the
  // caller (or the analytic fallback layer) sees what was already tried.
  SolverDiagnostics diag = last_error->diagnostics();
  diag.recovery_trail = out.attempts;
  out.error.emplace(last_error->kind(), "recovery ladder exhausted",
                    std::move(diag));
  return out;
}

}  // namespace ssnkit::sim
