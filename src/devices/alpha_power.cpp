#include "devices/alpha_power.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::devices {

void AlphaPowerParams::validate() const {
  if (!(vdd > 0.0)) throw std::invalid_argument("AlphaPowerParams: vdd must be > 0");
  if (!(vt0 > 0.0 && vt0 < vdd))
    throw std::invalid_argument("AlphaPowerParams: vt0 must be in (0, vdd)");
  if (!(alpha >= 1.0 && alpha <= 2.0))
    throw std::invalid_argument("AlphaPowerParams: alpha must be in [1, 2]");
  if (!(id0 > 0.0)) throw std::invalid_argument("AlphaPowerParams: id0 must be > 0");
  if (!(vd0 > 0.0)) throw std::invalid_argument("AlphaPowerParams: vd0 must be > 0");
  if (gamma < 0.0) throw std::invalid_argument("AlphaPowerParams: gamma must be >= 0");
  if (!(phi2f > 0.0)) throw std::invalid_argument("AlphaPowerParams: phi2f must be > 0");
  if (lambda_clm < 0.0)
    throw std::invalid_argument("AlphaPowerParams: lambda_clm must be >= 0");
  if (!(eps_smooth > 0.0))
    throw std::invalid_argument("AlphaPowerParams: eps_smooth must be > 0");
}

AlphaPowerModel::AlphaPowerModel(AlphaPowerParams params) : params_(params) {
  params_.validate();
}

double AlphaPowerModel::vt(double vsb) const {
  return body_effect_vt(params_.vt0, params_.gamma, params_.phi2f, vsb);
}

double AlphaPowerModel::vdsat(double vgs, double vbs) const {
  const double vgt = softplus(vgs - vt(-vbs), params_.eps_smooth);
  const double x = vgt / (params_.vdd - params_.vt0);
  return params_.vd0 * std::pow(x, 0.5 * params_.alpha);
}

double AlphaPowerModel::ids(double vgs, double vds, double vbs) const {
  const double vsb = -vbs;
  const double vth = vt(vsb);
  const double vgt = softplus(vgs - vth, params_.eps_smooth);
  const double x = vgt / (params_.vdd - params_.vt0);
  const double idsat = params_.id0 * std::pow(x, params_.alpha);
  const double vds_pos = std::max(vds, 0.0);
  const double clm = 1.0 + params_.lambda_clm * vds_pos;
  const double vds_sat = params_.vd0 * std::pow(x, 0.5 * params_.alpha);
  if (vds_pos >= vds_sat || vds_sat <= 0.0) return idsat * clm;
  const double r = vds_pos / vds_sat;
  return idsat * (2.0 - r) * r * clm;
}

MosfetEval AlphaPowerModel::evaluate(double vgs, double vds, double vbs) const {
  // The current is ids()'s expression evaluated in the same order, so the
  // two agree bit for bit; the derivatives follow it by the chain rule.
  const ValueSlope vth = body_effect_vt_with_slope(
      params_.vt0, params_.gamma, params_.phi2f, -vbs);
  const ValueSlope vgt =
      softplus_with_slope(vgs - vth.value, params_.eps_smooth);
  const double x = vgt.value / (params_.vdd - params_.vt0);
  const double idsat = params_.id0 * std::pow(x, params_.alpha);
  const double vds_pos = std::max(vds, 0.0);
  const double clm = 1.0 + params_.lambda_clm * vds_pos;
  const double vds_sat = params_.vd0 * std::pow(x, 0.5 * params_.alpha);

  // Power laws in x differentiate through d ln x / d vgs = slope / vgt,
  // which stays finite where vgt is subnormal (1/x would overflow there).
  const double dlog_x = vgt.value > 0.0 ? vgt.slope / vgt.value : 0.0;
  const double didsat = params_.alpha * idsat * dlog_x;
  const double dvds_sat = 0.5 * params_.alpha * vds_sat * dlog_x;
  // d vds_pos / d vds: the clamp's flat side for vds <= 0, vds = 0 included.
  const double dvds_pos = vds > 0.0 ? 1.0 : 0.0;

  MosfetEval out;
  if (vds_pos >= vds_sat || vds_sat <= 0.0) {
    out.ids = idsat * clm;
    out.gm = didsat * clm;
    out.gds = idsat * params_.lambda_clm * dvds_pos;
  } else {
    const double r = vds_pos / vds_sat;
    const double shape = (2.0 - r) * r;
    const double dshape_dr = 2.0 - 2.0 * r;
    const double idsat_per_vdsat = idsat / vds_sat;  // d r / d vds = 1/vds_sat
    out.ids = idsat * (2.0 - r) * r * clm;
    out.gm =
        (didsat * shape - idsat_per_vdsat * dshape_dr * r * dvds_sat) * clm;
    out.gds = (idsat_per_vdsat * dshape_dr * clm +
               idsat * shape * params_.lambda_clm) *
              dvds_pos;
  }
  // vbs enters only through vt: d vgt / d vbs = -d vt/d vbs = d vt / d vsb.
  out.gmb = out.gm * vth.slope;
  return out;
}

std::unique_ptr<MosfetModel> AlphaPowerModel::clone() const {
  return std::make_unique<AlphaPowerModel>(*this);
}

}  // namespace ssnkit::devices
