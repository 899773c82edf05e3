// What an SSN estimate is: the paper's closed form for one switching event,
// self-checked exactly, and that event simulated on the MNA testbench to
// extract what the paper reports (the ground-bounce waveform, the inductor
// current, the maximum noise during the input ramp). The CLI and serve
// `estimate` make the same calls and only render.
//
// measure_ssn is the analysis-layer end of the recovery ladder. The engine
// rungs (sim/recovery.hpp) retry the transient with progressively cheaper
// numerics; measure_ssn adds the final rung the engine cannot reach —
// degrading to the paper's closed-form LC / L-only models, which need the
// calibrated SsnScenario known only here. Every result says which rung
// produced it, so a recovered, analytic or failed number is never mistaken
// for a full-device one.
#pragma once

#include "analysis/calibrate.hpp"
#include "circuit/testbench.hpp"
#include "core/lc_model.hpp"
#include "core/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/recovery.hpp"
#include "support/diagnostics.hpp"
#include "support/runcontext.hpp"
#include "verify/trust.hpp"
#include "waveform/waveform.hpp"

#include <optional>
#include <vector>

namespace ssnkit::analysis {

struct SsnMeasurement {
  double v_max = 0.0;        ///< max ground bounce during the ramp [V]
  double t_at_max = 0.0;     ///< where it occurred [s]
  waveform::Waveform vssi;   ///< internal-ground voltage
  waveform::Waveform i_l;    ///< ground-inductor current
  waveform::Waveform vin;    ///< first driver's input
  waveform::Waveform vout;   ///< first driver's output
  sim::SolverStats stats;
  /// How this measurement was verified: the engine's solve verdict, merged
  /// with the physics-invariant findings when verify_measurement() ran.
  verify::TrustReport trust;
};

struct MeasureOptions {
  /// Simulate this factor past the ramp end (the bounce tail is useful for
  /// plots; the reported max is still taken inside the ramp).
  double overshoot_factor = 1.0;
  sim::TransientOptions transient;  ///< t_start/t_stop are filled in
};

/// A measurement tagged with the solver fidelity that produced it. When the
/// whole ladder (including the analytic rung, if a scenario was supplied)
/// failed, `fidelity` is kFailed and `error` carries the typed diagnostic.
struct ResilientMeasurement {
  SsnMeasurement measurement;
  sim::Fidelity fidelity = sim::Fidelity::kFullDevice;
  /// Every recovery rung attempted, in order, with its outcome.
  std::vector<support::RecoveryAttempt> attempts;
  /// Populated when every simulation rung failed. The analytic rung, when
  /// taken, leaves it set so callers can still see why simulation degraded.
  std::optional<support::SolverError> error;

  bool ok() const { return fidelity != sim::Fidelity::kFailed; }
  bool degraded() const { return fidelity != sim::Fidelity::kFullDevice; }
};

/// Build the bench circuit, simulate it under the recovery ladder, and
/// measure. The maximum is taken over [0, t_ramp_end], matching the
/// validity window of the paper's formulas. Never throws on solver failure.
///
/// `analytic_fallback` is the calibrated scenario of this bench. When given,
/// a simulated measurement is physics-checked against it
/// (verify_measurement), and a bench whose every simulation rung failed is
/// evaluated on the closed forms instead (LcModel when the scenario carries
/// capacitance, LOnlyModel otherwise) and tagged kAnalytic. A cooperative
/// stop (cancel / deadline) is never degraded: it stays kFailed.
ResilientMeasurement measure_ssn(
    const circuit::SsnBenchSpec& spec, const MeasureOptions& opts = {},
    const core::SsnScenario* analytic_fallback = nullptr);

/// Same, for a bench the caller already customized.
ResilientMeasurement measure_ssn(
    circuit::SsnBench& bench, const MeasureOptions& opts = {},
    const core::SsnScenario* analytic_fallback = nullptr);

/// The closed-form answer for one switching event: Table 1 (LcModel) when
/// the scenario carries a pad capacitance, Eqn 7 (LOnlyModel) otherwise.
struct SsnEstimate {
  core::SsnScenario scenario;  ///< also gives beta, S and C_crit
  double v_max = 0.0;          ///< maximum SSN over the ramp [V]
  double zeta = 0.0;           ///< LC only, as is max_case
  core::MaxSsnCase max_case = core::MaxSsnCase::kOverDamped;
  /// The self-check's verdict (SSN-W073), plus the simulation's if it ran.
  verify::TrustReport trust;

  bool lc() const { return scenario.capacitance > 0.0; }
};

/// Evaluate the closed form and self-check it (verify::check_closed_form_peak).
SsnEstimate estimate_closed_form(const core::SsnScenario& scenario);

/// Simulate `estimate` on its standard bench (bench_point) with measure_ssn,
/// then fold the engine's trust and the paper's 3 % cross-check (SSN-W074)
/// into `estimate.trust`. A failed measurement, a stop on `ctx` (may be
/// null) included, is thrown as its SolverError.
ResilientMeasurement simulate_estimate(const Calibration& cal,
                                       const process::Package& package,
                                       double input_rise_time,
                                       SsnEstimate& estimate,
                                       const support::RunContext* ctx);

/// Evaluate the closed-form measurement directly (the analytic rung on its
/// own).
SsnMeasurement analytic_measurement(const core::SsnScenario& scenario);

/// Run the src/verify physics invariants on a simulated measurement and
/// fold the findings into its trust report: passivity of the ground path,
/// V_max/extremum consistency with the fitted Table 1 damping case. Needs
/// the calibrated scenario (package L plus the fitted ASDM device select
/// the damping case); violations downgrade trust, never throw.
void verify_measurement(SsnMeasurement& m, const core::SsnScenario& scenario);

}  // namespace ssnkit::analysis
