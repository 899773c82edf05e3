// The common parameter set every closed-form SSN model consumes: how many
// drivers switch, the ground parasitics they share, the input ramp, and the
// fitted ASDM device.
#pragma once

#include "devices/asdm.hpp"

// Dimensions for the SSN-L011 units pass (docs/STATIC_ANALYSIS.md): the
// scenario's fields and derived figures. beta = N*L*S is V^2/A so that
// V_inf = K*beta comes out in volts.
// ssn-units: inductance=H, capacitance=F, slope=V/s, vdd=V, k=A/V, lambda=1
// ssn-units: n_drivers=1
// ssn-units: vx=V, t_on=s, t_ramp_end=s, active_ramp=s, beta=V^2/A
// ssn-units: v_inf=V, critical_capacitance=F

namespace ssnkit::core {

/// One simultaneous-switching event:
///   N identical drivers, input ramp v_in(t) = S*t from 0 to vdd,
///   shared ground inductance L and (optionally) pad capacitance C.
struct SsnScenario {
  int n_drivers = 8;          ///< N
  double inductance = 5e-9;   ///< L [H]
  double capacitance = 0.0;   ///< C [F]; 0 selects the L-only analysis
  double slope = 1.8e10;      ///< input slope S [V/s]
  double vdd = 1.8;           ///< supply / ramp top [V]
  devices::AsdmParams device; ///< fitted K, lambda, V_x

  void validate() const;

  /// Noise onset: the time the ramp reaches V_x (the device turns on).
  double t_on() const { return device.vx / slope; }
  /// End of the input ramp, t_r = vdd / S.
  double t_ramp_end() const { return vdd / slope; }
  /// Ramp duration from turn-on to ramp end: (vdd - V_x)/S.
  double active_ramp() const { return (vdd - device.vx) / slope; }

  /// The paper's circuit-oriented figure beta = N*L*S (Eqn 9). Together
  /// with the process constants (K, lambda, V_x, vdd) it fully determines
  /// the L-only maximum SSN -- N, L and S are interchangeable.
  double beta() const { return double(n_drivers) * inductance * slope; }

  /// Asymptote of the noise: V_inf = N*L*K*S = K*beta.
  double v_inf() const { return device.k * beta(); }

  /// Critical pad capacitance (Eqn 27): the LC system is under-damped for
  /// C > C_crit = (N*K*lambda)^2 * L / 4. Quadratic in N: small driver
  /// counts are typically under-damped, large counts over-damped.
  double critical_capacitance() const;

  /// Copy with a different driver count / capacitance (sweep helpers).
  SsnScenario with_drivers(int n) const;
  SsnScenario with_capacitance(double c) const;
  SsnScenario with_slope(double s) const;
};

}  // namespace ssnkit::core
