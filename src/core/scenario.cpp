#include "core/scenario.hpp"

#include "support/contracts.hpp"

// ssn-units: inductance=H, capacitance=F, slope=V/s, vdd=V, k=A/V, lambda=1
// ssn-units: n_drivers=1
// ssn-units: vx=V, critical_capacitance=F

namespace ssnkit::core {

void SsnScenario::validate() const {
  SSN_REQUIRE(n_drivers >= 1, "SsnScenario: n_drivers must be >= 1");
  SSN_REQUIRE(inductance > 0.0, "SsnScenario: inductance must be > 0");
  SSN_REQUIRE(capacitance >= 0.0, "SsnScenario: capacitance must be >= 0");
  SSN_REQUIRE(slope > 0.0, "SsnScenario: slope must be > 0");
  SSN_REQUIRE(vdd > 0.0, "SsnScenario: vdd must be > 0");
  device.validate();
  SSN_REQUIRE(device.vx < vdd, "SsnScenario: device V_x must be below vdd");
}

double SsnScenario::critical_capacitance() const {
  const double nkl = double(n_drivers) * device.k * device.lambda;
  return nkl * nkl * inductance / 4.0;
}

SsnScenario SsnScenario::with_drivers(int n) const {
  SsnScenario s = *this;
  s.n_drivers = n;
  return s;
}

SsnScenario SsnScenario::with_capacitance(double c) const {
  SsnScenario s = *this;
  s.capacitance = c;
  return s;
}

SsnScenario SsnScenario::with_slope(double sl) const {
  SsnScenario s = *this;
  s.slope = sl;
  return s;
}

}  // namespace ssnkit::core
