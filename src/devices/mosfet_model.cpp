#include "devices/mosfet_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::devices {

ScaledMosfetModel::ScaledMosfetModel(std::unique_ptr<MosfetModel> inner,
                                     double factor)
    : inner_(std::move(inner)), factor_(factor) {
  if (!inner_) throw std::invalid_argument("ScaledMosfetModel: null inner model");
  if (!(factor_ > 0.0))
    throw std::invalid_argument("ScaledMosfetModel: factor must be > 0");
}

double ScaledMosfetModel::ids(double vgs, double vds, double vbs) const {
  return factor_ * inner_->ids(vgs, vds, vbs);
}

MosfetEval ScaledMosfetModel::evaluate(double vgs, double vds, double vbs) const {
  MosfetEval e = inner_->evaluate(vgs, vds, vbs);
  e.ids *= factor_;
  e.gm *= factor_;
  e.gds *= factor_;
  e.gmb *= factor_;
  return e;
}

std::unique_ptr<MosfetModel> ScaledMosfetModel::clone() const {
  return std::make_unique<ScaledMosfetModel>(inner_->clone(), factor_);
}

double softplus(double x, double eps) {
  return softplus_with_slope(x, eps).value;
}

ValueSlope softplus_with_slope(double x, double eps) {
  if (eps <= 0.0) throw std::invalid_argument("softplus: eps must be > 0");
  // Numerically stable: max(x, 0) + eps*log1p(exp(-|x|/eps)). With
  // e = exp(-|x|/eps) the logistic slope is 1/(1+e) for x >= 0 and e/(1+e)
  // below.
  const double e = std::exp(-std::fabs(x) / eps);
  return {std::max(x, 0.0) + eps * std::log1p(e),
          (x >= 0.0 ? 1.0 : e) / (1.0 + e)};
}

double body_effect_vt(double vt0, double gamma, double phi2f, double vsb) {
  return body_effect_vt_with_slope(vt0, gamma, phi2f, vsb).value;
}

ValueSlope body_effect_vt_with_slope(double vt0, double gamma, double phi2f,
                                     double vsb) {
  if (gamma == 0.0) return {vt0, 0.0};  // ssnlint-ignore(SSN-L001)
  if (phi2f <= 0.0) throw std::invalid_argument("body_effect_vt: phi2f must be > 0");
  const double clamp = -0.5 * phi2f;
  const double root = std::sqrt(phi2f + std::max(vsb, clamp));
  return {vt0 + gamma * (root - std::sqrt(phi2f)),
          vsb < clamp ? 0.0 : 0.5 * gamma / root};
}

}  // namespace ssnkit::devices
