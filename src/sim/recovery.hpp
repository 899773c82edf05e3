// The solver recovery ladder: on transient failure, escalate through a
// deterministic sequence of cheaper-fidelity retries instead of aborting.
//
// Rungs, in order (each keeps the previous rungs' adjustments — the ladder
// is cumulative and therefore fully deterministic):
//
//   0  full-device         the caller's options, unchanged
//   1  tighten-damping     max_voltage_step x0.25, iteration budget x2
//   2  alternate-integrator trap -> Gear-2 (or Gear-2 -> BE): damped methods
//                          kill the trapezoidal ringing that grinds Newton
//   3  gmin-recovery       per-timepoint gmin ramp at the failing point
//   4  reduced-timestep    restart from t_start with dt_max shrunk 10x (the
//                          engine re-initializes element state, so t_start
//                          is the only safe checkpoint)
//
// The rungs and their factors are fixed. A final analytic rung — degrade to
// the paper's closed-form LC / L-only models — lives in analysis::measure_ssn,
// where the SsnScenario needed to evaluate the closed forms is known. The
// outcome is tagged with the fidelity level actually achieved; a failed
// rung's partial waveform is not kept.
#pragma once

#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

#include <optional>
#include <string>
#include <vector>

namespace ssnkit::sim {

/// How much solver fidelity the returned waveform carries. Order matters:
/// larger values mean further degradation from the requested simulation.
enum class Fidelity {
  kFullDevice = 0,        ///< nominal device-level simulation succeeded
  kTightenedDamping = 1,  ///< succeeded with tighter Newton damping
  kAlternateIntegrator = 2,  ///< succeeded after switching integrator
  kGminRecovery = 3,      ///< succeeded with per-timepoint gmin rescue
  kReducedTimestep = 4,   ///< succeeded after a dt_max-shrunk restart
  kAnalytic = 5,          ///< degraded to the closed-form LC / L-only model
  kFailed = 6,            ///< everything failed; error is populated
};

const char* to_string(Fidelity fidelity);

/// Result of a laddered transient run.
struct RecoveryOutcome {
  TransientResult result;           ///< from the rung that succeeded
  Fidelity fidelity = Fidelity::kFullDevice;
  /// Engaged when every rung failed; carries the final rung's diagnostics
  /// plus the full recovery trail.
  std::optional<support::SolverError> error;
  /// Every rung attempted, in order, with its outcome.
  std::vector<support::RecoveryAttempt> attempts;

  bool ok() const { return !error.has_value(); }
  bool degraded() const { return fidelity != Fidelity::kFullDevice; }
};

/// Run a transient analysis, escalating through the recovery ladder on
/// failure. Never throws on solver failure: a fully failed ladder returns
/// an outcome with fidelity kFailed and the typed error. A non-retryable
/// error (a structurally singular circuit, a cooperative stop) ends the
/// ladder after the first rung.
RecoveryOutcome run_transient_resilient(circuit::Circuit& ckt,
                                        const TransientOptions& opts);

}  // namespace ssnkit::sim
