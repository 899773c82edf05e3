// "BSIM-lite": a compact drain-current model with vertical-field mobility
// degradation, velocity saturation, body effect, channel-length modulation
// and a smooth triode/saturation blend. It is deliberately *not* the
// alpha-power law — having a second, structurally different golden device
// lets the tests show that the ASDM extraction works against any realistic
// I–V surface, not just the family it resembles.
//
//   vt      = vt0 + gamma*(sqrt(phi2f+vsb) - sqrt(phi2f))
//   vgt     = softplus(vgs - vt)
//   mu_eff  = 1 / (1 + theta*vgt)                 (vertical field)
//   vdsat   = vgt*vsat_v / (vgt + vsat_v)         (velocity saturation)
//   vdseff  = smooth-min(vds, vdsat)
//   ids     = kp*mu_eff*(vgt - vdseff/2)*vdseff / (1 + vdseff/vsat_v)
//             * (1 + lambda_clm*(vds - vdseff))
//
// evaluate() differentiates this chain in closed form.
#pragma once

#include "devices/mosfet_model.hpp"

namespace ssnkit::devices {

struct BsimLiteParams {
  double kp = 3.0e-2;        ///< mu0*Cox*W/L [A/V^2] (W-scaled)
  double vt0 = 0.45;         ///< zero-bias threshold [V]
  double gamma = 0.35;       ///< body-effect coefficient [sqrt(V)]
  double phi2f = 0.85;       ///< surface potential [V]
  double theta = 0.25;       ///< mobility degradation [1/V]
  double vsat_v = 1.1;       ///< velocity-saturation voltage Esat*Leff [V]
  double lambda_clm = 0.06;  ///< channel-length modulation [1/V]
  double eps_smooth = 2e-3;  ///< off/on smoothing width [V]

  void validate() const;
};

class BsimLiteModel final : public MosfetModel {
 public:
  explicit BsimLiteModel(BsimLiteParams params);

  const BsimLiteParams& params() const { return params_; }

  double ids(double vgs, double vds, double vbs) const override;
  MosfetEval evaluate(double vgs, double vds, double vbs) const override;
  std::unique_ptr<MosfetModel> clone() const override;

  double vt(double vsb) const;
  double vdsat(double vgs, double vbs) const;

 private:
  BsimLiteParams params_;
};

}  // namespace ssnkit::devices
