#include "devices/asdm.hpp"

#include <algorithm>
#include <stdexcept>

// Dimensions for the SSN-L011 units pass (docs/STATIC_ANALYSIS.md). The ASDM
// transconductance K maps overdrive volts to amps; lambda and the softplus
// slope are dimensionless.
// ssn-units: k=A/V, lambda=1, vx=V, eps_smooth=V
// ssn-units: vg=V, vs=V, vgs=V, vds=V, vbs=V, overdrive=V, slope=1
// ssn-units: ids=A, ids_gate_source=A, gm=A/V, gds=A/V, gmb=A/V
// ssn-units: softplus=V

namespace ssnkit::devices {

void AsdmParams::validate() const {
  if (!(k > 0.0)) throw std::invalid_argument("AsdmParams: k must be > 0");
  if (!(lambda >= 1.0))
    throw std::invalid_argument("AsdmParams: lambda must be >= 1");
  if (!(vx > 0.0)) throw std::invalid_argument("AsdmParams: vx must be > 0");
  if (!(eps_smooth > 0.0))
    throw std::invalid_argument("AsdmParams: eps_smooth must be > 0");
}

AsdmModel::AsdmModel(AsdmParams params) : params_(params) { params_.validate(); }

double AsdmModel::ids_gate_source(double vg, double vs) const {
  return std::max(0.0, params_.k * (vg - params_.lambda * vs - params_.vx));
}

double AsdmModel::ids(double vgs, double /*vds*/, double vbs) const {
  // Smooth-clamped variant of ids_gate_source (see eps_smooth in the
  // params): overdrive = vgs + (lambda-1)*vbs - vx.
  const double overdrive = vgs + (params_.lambda - 1.0) * vbs - params_.vx;
  return params_.k * softplus(overdrive, params_.eps_smooth);
}

MosfetEval AsdmModel::evaluate(double vgs, double /*vds*/, double vbs) const {
  const double overdrive = vgs + (params_.lambda - 1.0) * vbs - params_.vx;
  const ValueSlope on = softplus_with_slope(overdrive, params_.eps_smooth);
  MosfetEval out;
  out.ids = params_.k * on.value;
  out.gm = params_.k * on.slope;
  out.gds = 0.0;
  // d ids / d vbs: ids = k*(vgs + (lambda-1)*vbs - vx) when on.
  out.gmb = params_.k * (params_.lambda - 1.0) * on.slope;
  return out;
}

std::unique_ptr<MosfetModel> AsdmModel::clone() const {
  return std::make_unique<AsdmModel>(*this);
}

}  // namespace ssnkit::devices
