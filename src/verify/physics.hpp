// Physics invariants for the SSN ground path: checks that are independent
// of how the waveform was produced, so a corrupted simulation (bit-rotted
// cache entry, degraded factorization, broken device model) is caught by
// conservation laws rather than by trusting the producer.
//
//   1. Passivity / inductor-branch energy bookkeeping. The package ground
//      path contains no sources, so the energy the chip injects into it,
//      E_inj(t) = integral of vssi * i_L, must cover the energy stored in
//      the inductor, E_L(t) = L/2 * (i_L^2 - i_L(0)^2); the difference is
//      dissipation, which can never be negative. A waveform pair that
//      violates this is not a solution of any passive RLC network.
//   2. Extremum consistency against the fitted Table 1 damping case: the
//      reported V_max must actually be the waveform's maximum over the
//      ramp, and for an under-damped first-peak configuration its time
//      must sit near the closed-form first peak t_on + pi/omega_d
//      (otherwise near the ramp end, cases 1/2/3b).
//   3. Closed-form cross-check: the paper claims Eqn 7/13 track the
//      simulator within ~3 %; on cross-checkable configurations a larger
//      gap downgrades trust (SSN-W074) rather than crashing.
//   4. Closed-form self-check: the Table 1 / Eqn 7 maximum must be the
//      exact ramp maximum of the same model (SSN-W073: wrong damping case).
//
// Violations downgrade the TrustReport to degraded with an SSN-W073/W074
// note; they never throw — a suspect estimate still beats no estimate.
#pragma once

#include "core/scenario.hpp"
#include "verify/trust.hpp"
#include "waveform/waveform.hpp"

#include <string>
#include <vector>

namespace ssnkit::verify {

/// What the invariant sweep found. `notes` carries ready-to-attach
/// SSN-W073 strings; apply() folds everything into a TrustReport.
struct PhysicsFindings {
  bool passivity_ok = true;
  bool extremum_ok = true;
  bool timing_checked = false;     ///< Table 1 timing check applied
  double energy_injected = 0.0;    ///< E_inj at end of record [J]
  double energy_stored = 0.0;      ///< inductor energy at end of record [J]
  double worst_deficit = 0.0;      ///< max_t (E_L - E_inj)/scale, >0 = bad
  std::vector<std::string> notes;
  bool ok() const { return passivity_ok && extremum_ok; }
};

/// Run invariants 1 and 2 on a simulated ground-bounce record. `vssi` and
/// `i_l` are the ground-node voltage and package-inductor current on the
/// simulator's time grid; `v_max`/`t_at_max` are the reported extremum.
PhysicsFindings check_ground_path(const core::SsnScenario& scenario,
                                  const waveform::Waveform& vssi,
                                  const waveform::Waveform& i_l,
                                  double v_max, double t_at_max);

/// Invariant 3: closed-form vs simulator agreement. Appends an SSN-W074
/// note and downgrades `trust` when the relative gap exceeds the paper's
/// 3 % bar. Returns true when within the bar.
bool cross_check_closed_form(double v_closed_form, double v_simulated,
                             TrustReport& trust);

/// The exact maximum of the scenario's closed-form V_n over the ramp. V_n
/// rises up to its first stationary point and an under-damped model's later
/// peaks stay below its first (Section 4), so this is V_n(t_r), or the first
/// peak t_on + pi/omega_d when that lies inside the ramp and is higher.
double closed_form_ramp_maximum(const core::SsnScenario& scenario);

/// Invariant 4: `v_formula` against closed_form_ramp_maximum. Appends an
/// SSN-W073 note and downgrades `trust` when they differ beyond the v_max
/// tolerance. Returns true when they agree.
bool check_closed_form_peak(const core::SsnScenario& scenario,
                            double v_formula, TrustReport& trust);

/// Fold findings into a trust report: ok -> no change; a violated
/// invariant downgrades to degraded and attaches the SSN-W073 notes.
void apply(const PhysicsFindings& findings, TrustReport& trust);

}  // namespace ssnkit::verify
