// Sakurai–Newton alpha-power-law MOSFET model [12], extended with body
// effect and channel-length modulation. This is one of the two "golden"
// devices standing in for the paper's BSIM3 / HSPICE reference, and it is
// also the device model the reconstructed baseline SSN formulas
// (Vemuru '96, Song '99) are built on.
//
//   vt     = vt0 + gamma*(sqrt(phi2f+vsb) - sqrt(phi2f))
//   vgt    = vgs - vt                       (smoothly clamped at 0)
//   idsat  = id0 * (vgt / (vdd - vt0))^alpha
//   vdsat  = vd0 * (vgt / (vdd - vt0))^(alpha/2)
//   ids    = idsat * (1 + lambda_clm*vds)                    vds >= vdsat
//          = idsat * (2 - vds/vdsat)*(vds/vdsat)
//                  * (1 + lambda_clm*vds)                    vds <  vdsat
//
// The two branches meet with matching value and d/dvds at vds = vdsat.
// evaluate() differentiates this chain in closed form.
#pragma once

#include "devices/mosfet_model.hpp"

namespace ssnkit::devices {

struct AlphaPowerParams {
  double vdd = 1.8;         ///< normalization supply [V]
  double vt0 = 0.45;        ///< zero-bias threshold [V]
  double alpha = 1.3;       ///< velocity-saturation index, 1 (short) .. 2 (long)
  double id0 = 5e-3;        ///< drain current at vgs = vdd, vds = vdd [A]
  double vd0 = 0.8;         ///< saturation voltage at vgs = vdd [V]
  double gamma = 0.35;      ///< body-effect coefficient [sqrt(V)]
  double phi2f = 0.85;      ///< surface potential 2*phi_F [V]
  double lambda_clm = 0.05; ///< channel-length modulation [1/V]
  double eps_smooth = 2e-3; ///< off/on smoothing width [V]

  /// Throws std::invalid_argument when a parameter is out of range.
  void validate() const;
};

class AlphaPowerModel final : public MosfetModel {
 public:
  explicit AlphaPowerModel(AlphaPowerParams params);

  const AlphaPowerParams& params() const { return params_; }

  double ids(double vgs, double vds, double vbs) const override;
  MosfetEval evaluate(double vgs, double vds, double vbs) const override;
  std::unique_ptr<MosfetModel> clone() const override;

  /// Threshold including body effect at the given source-bulk bias.
  double vt(double vsb) const;
  /// Saturation voltage at the given gate overdrive.
  double vdsat(double vgs, double vbs) const;

 private:
  AlphaPowerParams params_;
};

}  // namespace ssnkit::devices
