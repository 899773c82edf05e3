#include "core/lc_model.hpp"

#include "numeric/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

// Dimensions for the SSN-L011 units pass (docs/STATIC_ANALYSIS.md). The
// resonator members carry their Eqn 13 units: omega0, sigma, omega_d and
// the characteristic roots s1/s2 are rates [1/s]; zeta is dimensionless.
// ssn-units: inductance=H, capacitance=F, slope=V/s, vdd=V, k=A/V, lambda=1
// ssn-units: n_drivers=1
// ssn-units: vx=V, t=s, dt=s, t_on=s, t_ramp_end=s, active_ramp=s
// ssn-units: beta=V^2/A, v_inf=V, vn=V, vn_dot=V/s, vn_raw=V, vn_dot_raw=V/s
// ssn-units: i_driver=A, i_inductor=A, i_capacitor=A
// ssn-units: omega0_=Hz, zeta_=1, sigma_=Hz, omega_d_=Hz, s1_=Hz, s2_=Hz
// ssn-units: omega0=Hz, zeta=1, sigma=Hz, omega_d=Hz
// ssn-units: pi=1, v0=V, dv0=V/s, v_max=V, t_first_peak=s, free_response=V
// ssn-units: free_response_dot=V/s, vn_extended=V

namespace ssnkit::core {

namespace {
/// Width of the numerical band around zeta = 1 treated as critically
/// damped: the two-real-root expressions lose precision as s1 -> s2.
constexpr double kCriticalBand = 1e-6;
}  // namespace

const char* to_string(DampingRegion region) {
  switch (region) {
    case DampingRegion::kOverDamped: return "over-damped";
    case DampingRegion::kCriticallyDamped: return "critically-damped";
    case DampingRegion::kUnderDamped: return "under-damped";
  }
  return "?";
}

const char* to_string(MaxSsnCase c) {
  switch (c) {
    case MaxSsnCase::kOverDamped: return "case 1 (over-damped, boundary)";
    case MaxSsnCase::kCriticallyDamped: return "case 2 (critically damped, boundary)";
    case MaxSsnCase::kUnderDampedFirstPeak: return "case 3a (under-damped, first peak)";
    case MaxSsnCase::kUnderDampedBoundary: return "case 3b (under-damped, boundary)";
  }
  return "?";
}

LcModel::LcModel(SsnScenario scenario) : scenario_(std::move(scenario)) {
  scenario_.validate();
  if (!(scenario_.capacitance > 0.0))
    throw std::invalid_argument("LcModel: capacitance must be > 0 (use LOnlyModel)");

  const double l = scenario_.inductance;
  const double c = scenario_.capacitance;
  const double nkl =
      double(scenario_.n_drivers) * scenario_.device.k * scenario_.device.lambda;

  omega0_ = 1.0 / std::sqrt(l * c);
  zeta_ = 0.5 * nkl * std::sqrt(l / c);
  sigma_ = zeta_ * omega0_;

  if (std::fabs(zeta_ - 1.0) <= kCriticalBand) {
    region_ = DampingRegion::kCriticallyDamped;
  } else if (zeta_ > 1.0) {
    region_ = DampingRegion::kOverDamped;
    // Characteristic equation L*C*s^2 + N*L*K*lambda*s + 1 = 0, solved with
    // the cancellation-safe quadratic.
    const auto roots = numeric::quadratic_real_roots(l * c, l * nkl, 1.0);
    if (!roots)
      throw std::logic_error("LcModel: over-damped region must have real roots");
    s1_ = (*roots)[0];
    s2_ = (*roots)[1];
  } else {
    region_ = DampingRegion::kUnderDamped;
    omega_d_ = omega0_ * std::sqrt(1.0 - zeta_ * zeta_);
  }
}

double LcModel::vn_raw(double dt) const {
  const double v_inf = scenario_.v_inf();
  switch (region_) {
    case DampingRegion::kOverDamped:
      // v = V_inf * (1 + (s2*e^{s1 dt} - s1*e^{s2 dt})/(s1 - s2))
      return v_inf * (1.0 + (s2_ * std::exp(s1_ * dt) - s1_ * std::exp(s2_ * dt)) /
                                (s1_ - s2_));
    case DampingRegion::kCriticallyDamped:
      return v_inf * (1.0 - (1.0 + omega0_ * dt) * std::exp(-omega0_ * dt));
    case DampingRegion::kUnderDamped: {
      const double e = std::exp(-sigma_ * dt);
      return v_inf * (1.0 - e * (std::cos(omega_d_ * dt) +
                                 (sigma_ / omega_d_) * std::sin(omega_d_ * dt)));
    }
  }
  return 0.0;
}

double LcModel::vn_dot_raw(double dt) const {
  const double v_inf = scenario_.v_inf();
  switch (region_) {
    case DampingRegion::kOverDamped:
      return v_inf * (s1_ * s2_ * (std::exp(s1_ * dt) - std::exp(s2_ * dt))) /
             (s1_ - s2_);
    case DampingRegion::kCriticallyDamped:
      return v_inf * omega0_ * omega0_ * dt * std::exp(-omega0_ * dt);
    case DampingRegion::kUnderDamped: {
      // v' = V_inf * (omega0^2/omega_d) * e^{-sigma dt} * sin(omega_d dt)
      return v_inf * (omega0_ * omega0_ / omega_d_) * std::exp(-sigma_ * dt) *
             std::sin(omega_d_ * dt);
    }
  }
  return 0.0;
}

double LcModel::vn(double t) const {
  const double t_on = scenario_.t_on();
  if (t <= t_on) return 0.0;
  const double t_clamped = std::min(t, scenario_.t_ramp_end());
  return vn_raw(t_clamped - t_on);
}

double LcModel::vn_dot(double t) const {
  const double t_on = scenario_.t_on();
  if (t <= t_on || t > scenario_.t_ramp_end()) return 0.0;
  return vn_dot_raw(t - t_on);
}

double LcModel::i_driver(double t) const {
  const double t_on = scenario_.t_on();
  if (t <= t_on) return 0.0;
  const double t_clamped = std::min(t, scenario_.t_ramp_end());
  const devices::AsdmParams& d = scenario_.device;
  return d.k * (scenario_.slope * t_clamped - d.lambda * vn(t_clamped) - d.vx);
}

double LcModel::i_inductor(double t) const {
  return double(scenario_.n_drivers) * i_driver(t) -
         scenario_.capacitance * vn_dot(t);
}

double LcModel::t_first_peak() const {
  if (region_ != DampingRegion::kUnderDamped)
    throw std::logic_error("LcModel::t_first_peak: not under-damped");
  return scenario_.t_on() + std::numbers::pi / omega_d_;
}

MaxSsnCase LcModel::max_case() const {
  switch (region_) {
    case DampingRegion::kOverDamped:
      return MaxSsnCase::kOverDamped;
    case DampingRegion::kCriticallyDamped:
      return MaxSsnCase::kCriticallyDamped;
    case DampingRegion::kUnderDamped:
      // Inequality 26: the first peak must land inside the ramp.
      return (std::numbers::pi / omega_d_ <= scenario_.active_ramp())
                 ? MaxSsnCase::kUnderDampedFirstPeak
                 : MaxSsnCase::kUnderDampedBoundary;
  }
  return MaxSsnCase::kOverDamped;
}

double LcModel::v_max() const {
  switch (max_case()) {
    case MaxSsnCase::kOverDamped:
    case MaxSsnCase::kCriticallyDamped:
    case MaxSsnCase::kUnderDampedBoundary:
      // Monotone (or still pre-peak) during the ramp: boundary value.
      return vn_raw(scenario_.active_ramp());
    case MaxSsnCase::kUnderDampedFirstPeak:
      // Eqn 24: first peak of the under-damped step response.
      return scenario_.v_inf() *
             (1.0 + std::exp(-sigma_ * std::numbers::pi / omega_d_));
  }
  return 0.0;
}

double LcModel::free_response(double v0, double dv0, double dt) const {
  switch (region_) {
    case DampingRegion::kOverDamped: {
      const double a = (dv0 - s2_ * v0) / (s1_ - s2_);
      const double b = (s1_ * v0 - dv0) / (s1_ - s2_);
      return a * std::exp(s1_ * dt) + b * std::exp(s2_ * dt);
    }
    case DampingRegion::kCriticallyDamped:
      return (v0 + (dv0 + omega0_ * v0) * dt) * std::exp(-omega0_ * dt);
    case DampingRegion::kUnderDamped: {
      const double e = std::exp(-sigma_ * dt);
      return e * (v0 * std::cos(omega_d_ * dt) +
                  (dv0 + sigma_ * v0) / omega_d_ * std::sin(omega_d_ * dt));
    }
  }
  return 0.0;
}

double LcModel::free_response_dot(double v0, double dv0, double dt) const {
  switch (region_) {
    case DampingRegion::kOverDamped: {
      const double a = (dv0 - s2_ * v0) / (s1_ - s2_);
      const double b = (s1_ * v0 - dv0) / (s1_ - s2_);
      return a * s1_ * std::exp(s1_ * dt) + b * s2_ * std::exp(s2_ * dt);
    }
    case DampingRegion::kCriticallyDamped: {
      const double c1 = dv0 + omega0_ * v0;
      return (c1 - omega0_ * (v0 + c1 * dt)) * std::exp(-omega0_ * dt);
    }
    case DampingRegion::kUnderDamped: {
      const double e = std::exp(-sigma_ * dt);
      const double c2 = (dv0 + sigma_ * v0) / omega_d_;
      const double val = v0 * std::cos(omega_d_ * dt) +
                         c2 * std::sin(omega_d_ * dt);
      const double dval = -v0 * omega_d_ * std::sin(omega_d_ * dt) +
                          c2 * omega_d_ * std::cos(omega_d_ * dt);
      return e * (dval - sigma_ * val);
    }
  }
  return 0.0;
}

double LcModel::vn_extended(double t) const {
  const double tr = scenario_.t_ramp_end();
  if (t <= tr) return vn(t);
  const double v_r = vn_raw(tr - scenario_.t_on());
  const double dv_r = vn_dot_raw(tr - scenario_.t_on());
  return free_response(v_r, dv_r, t - tr);
}

double LcModel::vn_dot_extended(double t) const {
  const double tr = scenario_.t_ramp_end();
  if (t <= scenario_.t_on()) return 0.0;
  if (t <= tr) return vn_dot_raw(t - scenario_.t_on());
  const double v_r = vn_raw(tr - scenario_.t_on());
  const double dv_r = vn_dot_raw(tr - scenario_.t_on());
  return free_response_dot(v_r, dv_r, t - tr);
}

LcModel::ExtendedMax LcModel::v_max_extended(double horizon) const {
  const double tr = scenario_.t_ramp_end();
  if (horizon <= 0.0) {
    // Several decay constants past the ramp so every post-ramp peak is in.
    const double decay =
        region_ == DampingRegion::kOverDamped ? -1.0 / s2_ : 1.0 / sigma_;
    horizon = tr + 8.0 * decay;
  }
  if (horizon <= tr)
    throw std::invalid_argument("v_max_extended: horizon must exceed t_r");

  // Within-ramp maximum from Table 1.
  ExtendedMax best{v_max(), 0.0, false};
  best.t = (max_case() == MaxSsnCase::kUnderDampedFirstPeak)
               ? t_first_peak()
               : tr;

  // Post-ramp: dense scan plus parabolic refinement. The free response has
  // at most a countable set of peaks spaced by pi/omega_d (or one peak when
  // over-damped), so 4096 samples over the horizon resolve them all.
  constexpr std::size_t kSamples = 4096;
  for (std::size_t i = 1; i <= kSamples; ++i) {
    const double t = tr + (horizon - tr) * double(i) / double(kSamples);
    const double v = vn_extended(t);
    if (v > best.v) best = {v, t, true};
  }
  if (best.after_ramp) {
    // Refine with a few Newton steps on the derivative.
    double t = best.t;
    for (int it = 0; it < 30; ++it) {
      const double d = vn_dot_extended(t);
      const double h = (horizon - tr) * 1e-7;
      const double dd = (vn_dot_extended(t + h) - vn_dot_extended(t - h)) /
                        (2.0 * h);
      if (dd == 0.0) break;  // ssnlint-ignore(SSN-L001)
      const double next = t - d / dd;
      if (!(next > tr && next < horizon) || std::fabs(next - t) < 1e-18) break;
      t = next;
    }
    const double v = vn_extended(t);
    if (v >= best.v) best = {v, t, true};
  }
  return best;
}

waveform::Waveform LcModel::vn_waveform(std::size_t points) const {
  return waveform::Waveform::from_function([this](double t) { return vn(t); }, 0.0,
                                           scenario_.t_ramp_end(), points);
}

waveform::Waveform LcModel::current_waveform(std::size_t points) const {
  return waveform::Waveform::from_function(
      [this](double t) { return i_inductor(t); }, 0.0, scenario_.t_ramp_end(),
      points);
}

}  // namespace ssnkit::core
