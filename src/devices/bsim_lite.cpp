#include "devices/bsim_lite.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::devices {

void BsimLiteParams::validate() const {
  if (!(kp > 0.0)) throw std::invalid_argument("BsimLiteParams: kp must be > 0");
  if (!(vt0 > 0.0)) throw std::invalid_argument("BsimLiteParams: vt0 must be > 0");
  if (gamma < 0.0) throw std::invalid_argument("BsimLiteParams: gamma must be >= 0");
  if (!(phi2f > 0.0)) throw std::invalid_argument("BsimLiteParams: phi2f must be > 0");
  if (theta < 0.0) throw std::invalid_argument("BsimLiteParams: theta must be >= 0");
  if (!(vsat_v > 0.0)) throw std::invalid_argument("BsimLiteParams: vsat_v must be > 0");
  if (lambda_clm < 0.0)
    throw std::invalid_argument("BsimLiteParams: lambda_clm must be >= 0");
  if (!(eps_smooth > 0.0))
    throw std::invalid_argument("BsimLiteParams: eps_smooth must be > 0");
}

BsimLiteModel::BsimLiteModel(BsimLiteParams params) : params_(params) {
  params_.validate();
}

double BsimLiteModel::vt(double vsb) const {
  return body_effect_vt(params_.vt0, params_.gamma, params_.phi2f, vsb);
}

double BsimLiteModel::vdsat(double vgs, double vbs) const {
  const double vgt = softplus(vgs - vt(-vbs), params_.eps_smooth);
  return vgt * params_.vsat_v / (vgt + params_.vsat_v);
}

double BsimLiteModel::ids(double vgs, double vds, double vbs) const {
  const double vsb = -vbs;
  const double vth = vt(vsb);
  const double vgt = softplus(vgs - vth, params_.eps_smooth);
  const double mu_eff = 1.0 / (1.0 + params_.theta * vgt);
  const double vds_sat = vgt * params_.vsat_v / (vgt + params_.vsat_v);
  const double vds_pos = std::max(vds, 0.0);

  // Smooth blend of vds and vdsat (p-norm, p = 4): vdseff follows vds deep
  // in triode and saturates to vdsat, keeping d(ids)/d(vds) continuous.
  constexpr double p = 4.0;
  const double vdseff =
      (vds_pos <= 0.0 || vds_sat <= 0.0)
          ? 0.0
          : vds_pos * vds_sat /
                std::pow(std::pow(vds_pos, p) + std::pow(vds_sat, p), 1.0 / p);

  const double core = params_.kp * mu_eff * (vgt - 0.5 * vdseff) * vdseff /
                      (1.0 + vdseff / params_.vsat_v);
  const double clm = 1.0 + params_.lambda_clm * std::max(vds_pos - vdseff, 0.0);
  return core * clm;
}

MosfetEval BsimLiteModel::evaluate(double vgs, double vds, double vbs) const {
  // The current is ids()'s expression evaluated in the same order, so the
  // two agree bit for bit; the derivatives follow it by the chain rule.
  const ValueSlope vth = body_effect_vt_with_slope(
      params_.vt0, params_.gamma, params_.phi2f, -vbs);
  const ValueSlope sp =
      softplus_with_slope(vgs - vth.value, params_.eps_smooth);
  const double vgt = sp.value;
  const double vsat = params_.vsat_v;
  const double mu_eff = 1.0 / (1.0 + params_.theta * vgt);
  const double vds_sat = vgt * vsat / (vgt + vsat);
  const double vds_pos = std::max(vds, 0.0);

  // vdseff = vds*vdsat/norm with norm = (vds^4 + vdsat^4)^(1/4), so
  // d vdseff/d vds = (vdsat/norm)^5 and d vdseff/d vdsat = (vds/norm)^5.
  // On the zero branch vdseff = 0 for vds <= 0, and for vds > 0 it
  // follows vdsat as vdsat -> 0+.
  constexpr double p = 4.0;
  double vdseff = 0.0;
  double dvdseff_dvds = 0.0;
  double dvdseff_dvdsat = vds_pos > 0.0 ? 1.0 : 0.0;
  if (!(vds_pos <= 0.0 || vds_sat <= 0.0)) {
    const double norm =
        std::pow(std::pow(vds_pos, p) + std::pow(vds_sat, p), 1.0 / p);
    vdseff = vds_pos * vds_sat / norm;
    const auto fifth = [](double r) { return r * r * r * r * r; };
    dvdseff_dvds = fifth(vds_sat / norm);
    dvdseff_dvdsat = fifth(vds_pos / norm);
  }

  const double denom = 1.0 + vdseff / vsat;
  const double core =
      params_.kp * mu_eff * (vgt - 0.5 * vdseff) * vdseff / denom;
  const double excess = vds_pos - vdseff;
  const double clm = 1.0 + params_.lambda_clm * std::max(excess, 0.0);
  const double dclm = excess > 0.0 ? params_.lambda_clm : 0.0;  // d/d vds

  // Partials of core: through vgt directly (mobility, overdrive) and
  // through vdseff.
  const double dmu_dvgt = -params_.theta * mu_eff * mu_eff;
  const double dcore_dvgt =
      params_.kp * (dmu_dvgt * (vgt - 0.5 * vdseff) + mu_eff) * vdseff / denom;
  const double dcore_dvdseff =
      params_.kp * mu_eff *
      ((vgt - vdseff) - (vgt - 0.5 * vdseff) * vdseff / (vsat * denom)) / denom;
  const double dids_dvdseff = dcore_dvdseff * clm - core * dclm;
  const double dvdsat_dvgt = vsat * vsat / ((vgt + vsat) * (vgt + vsat));
  const double dids_dvgt =
      dcore_dvgt * clm + dids_dvdseff * dvdseff_dvdsat * dvdsat_dvgt;

  MosfetEval out;
  out.ids = core * clm;
  out.gds = vds > 0.0 ? dids_dvdseff * dvdseff_dvds + core * dclm : 0.0;
  out.gm = dids_dvgt * sp.slope;
  // vbs enters only through vt: d vgt / d vbs = -d vt/d vbs = d vt / d vsb.
  out.gmb = out.gm * vth.slope;
  return out;
}

std::unique_ptr<MosfetModel> BsimLiteModel::clone() const {
  return std::make_unique<BsimLiteModel>(*this);
}

}  // namespace ssnkit::devices
