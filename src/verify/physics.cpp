#include "verify/physics.hpp"

#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ssnkit::verify {

namespace {

// Allowed energy deficit relative to the peak stored energy. Covers
// trapezoid discretization error on LTE-controlled grids with margin.
constexpr double kEnergyRelTol = 0.05;
// Allowed |v_max - waveform maximum| relative to the waveform scale.
constexpr double kVmaxRelTol = 1e-6;
// Allowed |t_at_max - predicted extremum| relative to the ramp length.
// Generous: the simulator's alpha-power devices are not the closed form's
// ASDM, so peaks shift — the check catches grossly inconsistent timing (a
// corrupted scalar), not modeling differences.
constexpr double kPeakTimeRelTol = 0.25;
// The paper's closed-form accuracy claim.
constexpr double kClosedFormBar = 0.03;

std::string format_note(const char* code, const char* fmt, double a,
                        double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return std::string(code) + ": " + buf;
}

}  // namespace

PhysicsFindings check_ground_path(const core::SsnScenario& scenario,
                                  const waveform::Waveform& vssi,
                                  const waveform::Waveform& i_l,
                                  double v_max, double t_at_max) {
  PhysicsFindings out;
  const std::size_t n = std::min(vssi.size(), i_l.size());
  if (n < 3 || !std::isfinite(v_max) || !std::isfinite(t_at_max)) {
    // Nothing checkable: an empty or non-finite record is its own failure
    // mode and is reported by the solver path, not re-litigated here.
    return out;
  }

  // --- Invariant 1: inductor-branch energy bookkeeping -------------------
  // Running trapezoid of the injected power vssi * i_L against the energy
  // stored in L. The sweep tracks the worst instantaneous deficit relative
  // to the peak energy scale, so a single corrupted span is caught even if
  // the endpoints happen to balance again.
  const double l = scenario.inductance;
  const double i0 = i_l.value(0);
  double e_inj = 0.0;
  double e_scale = 0.0;
  double worst_deficit = 0.0;
  double e_stored = 0.0;
  for (std::size_t k = 1; k < n; ++k) {
    const double dt = vssi.time(k) - vssi.time(k - 1);
    const double p0 = vssi.value(k - 1) * i_l.value(k - 1);
    const double p1 = vssi.value(k) * i_l.value(k);
    e_inj += 0.5 * (p0 + p1) * dt;
    const double ik = i_l.value(k);
    e_stored = 0.5 * l * (ik * ik - i0 * i0);
    e_scale = std::max({e_scale, std::fabs(e_stored), std::fabs(e_inj)});
    worst_deficit = std::max(worst_deficit, e_stored - e_inj);
  }
  out.energy_injected = e_inj;
  out.energy_stored = e_stored;
  if (e_scale > 0.0) {
    out.worst_deficit = worst_deficit / e_scale;
    if (!std::isfinite(out.worst_deficit) ||
        out.worst_deficit > kEnergyRelTol) {
      out.passivity_ok = false;
      out.notes.push_back(format_note(
          "SSN-W073",
          "passivity violated: inductor stores %.3e J more than the chip "
          "injected (%.1f%% of the energy scale)",
          worst_deficit, 100.0 * out.worst_deficit));
    }
  } else if (!std::isfinite(e_inj) || !std::isfinite(e_stored)) {
    out.passivity_ok = false;
    out.notes.push_back(format_note(
        "SSN-W073", "passivity check hit non-finite energies (%.3e / %.3e)",
        e_inj, e_stored));
  }

  // --- Invariant 2a: v_max is the waveform's maximum ---------------------
  const waveform::Waveform::Extremum peak =
      vssi.maximum_in(scenario.t_on(), vssi.t_end());
  const double v_scale =
      std::max({std::fabs(peak.value), std::fabs(v_max), scenario.vdd});
  if (std::fabs(peak.value - v_max) > kVmaxRelTol * v_scale) {
    out.extremum_ok = false;
    out.notes.push_back(format_note(
        "SSN-W073",
        "reported v_max %.6e V disagrees with the waveform maximum %.6e V",
        v_max, peak.value));
  }

  // --- Invariant 2b: extremum time matches the Table 1 damping case ------
  // Only for configurations the closed form covers (C > 0 so LcModel
  // applies, and the record reaches the predicted extremum).
  if (scenario.capacitance > 0.0 && out.extremum_ok) {
    const core::LcModel model(scenario);
    double t_expect = scenario.t_ramp_end();
    bool have_prediction = true;
    switch (model.max_case()) {
      case core::MaxSsnCase::kUnderDampedFirstPeak:
        t_expect = model.t_first_peak();
        break;
      case core::MaxSsnCase::kOverDamped:
      case core::MaxSsnCase::kCriticallyDamped:
      case core::MaxSsnCase::kUnderDampedBoundary:
        // Closed form says the ramp-window max sits at the ramp end; the
        // simulated peak may drift past t_r (the paper's own 3b caveat),
        // so only a peak well BEFORE the ramp end is inconsistent.
        have_prediction = false;
        break;
    }
    const double window =
        kPeakTimeRelTol *
        std::max(scenario.t_ramp_end() - scenario.t_on(), 1e-30);
    if (t_at_max <= vssi.t_end() - window) {  // extremum inside the record
      out.timing_checked = true;
      const bool bad = have_prediction
                           ? std::fabs(t_at_max - t_expect) > window
                           : t_at_max < t_expect - window;
      if (bad) {
        out.extremum_ok = false;
        out.notes.push_back(format_note(
            "SSN-W073",
            "v_max at t=%.3e s is inconsistent with the fitted damping "
            "case (expected near %.3e s)",
            t_at_max, t_expect));
      }
    }
  }
  return out;
}

bool cross_check_closed_form(double v_closed_form, double v_simulated,
                             TrustReport& trust) {
  if (!std::isfinite(v_closed_form) || !std::isfinite(v_simulated) ||
      std::fabs(v_closed_form) <= 0.0) {
    trust.downgrade(Verdict::kDegraded);
    trust.note(format_note("SSN-W074",
                           "closed-form cross-check impossible: model %.3e "
                           "V vs simulated %.3e V",
                           v_closed_form, v_simulated));
    return false;
  }
  const double rel =
      std::fabs(v_simulated - v_closed_form) / std::fabs(v_closed_form);
  if (rel > kClosedFormBar) {
    trust.downgrade(Verdict::kDegraded);
    trust.note(format_note(
        "SSN-W074",
        "closed form and simulator disagree by %.1f%% (bar %.1f%%)",
        100.0 * rel, 100.0 * kClosedFormBar));
    return false;
  }
  return true;
}

double closed_form_ramp_maximum(const core::SsnScenario& scenario) {
  const double t_r = scenario.t_ramp_end();
  if (!(scenario.capacitance > 0.0)) return core::LOnlyModel(scenario).vn(t_r);
  const core::LcModel model(scenario);
  const double at_ramp_end = model.vn(t_r);
  if (model.region() != core::DampingRegion::kUnderDamped ||
      model.t_first_peak() > t_r)
    return at_ramp_end;
  return std::max(at_ramp_end, model.vn(model.t_first_peak()));
}

bool check_closed_form_peak(const core::SsnScenario& scenario,
                            double v_formula, TrustReport& trust) {
  const double exact = closed_form_ramp_maximum(scenario);
  const double scale = std::max(std::fabs(exact), std::fabs(v_formula));
  if (std::fabs(v_formula - exact) <= kVmaxRelTol * scale) return true;
  trust.downgrade(Verdict::kDegraded);
  trust.note(format_note(
      "SSN-W073",
      "closed-form v_max %.6e V disagrees with the exact ramp maximum "
      "%.6e V (mis-selected damping case?)",
      v_formula, exact));
  return false;
}

void apply(const PhysicsFindings& findings, TrustReport& trust) {
  if (!findings.ok()) trust.downgrade(Verdict::kDegraded);
  for (const std::string& n : findings.notes) trust.note(n);
}

}  // namespace ssnkit::verify
