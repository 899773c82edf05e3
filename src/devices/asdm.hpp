// The paper's contribution at the device level: the Application-Specific
// Device Model (ASDM), Eqn (3).
//
//   I_D(V_g, V_s) = K * (V_g - lambda*V_s - V_x),   clamped at 0
//
// valid in the SSN operating region only: drain held near V_DD (device in
// saturation), gate ramping from 0 to V_DD, source sitting on the bouncing
// internal ground node, bulk at the true ground. The three constants are
// fitted, not physical: K is an effective transconductance [A/V], lambda
// (> 1 in real processes) absorbs the body effect of the rising source, and
// V_x is a fitted voltage displacement that is *not* the threshold voltage.
#pragma once

#include "devices/mosfet_model.hpp"

namespace ssnkit::devices {

struct AsdmParams {
  double k = 5e-3;      ///< transconductance K [A/V]
  double lambda = 1.3;  ///< source-coupling factor (dimensionless, >= 1)
  double vx = 0.6;      ///< voltage displacement V_x [V]
  /// Turn-on smoothing width [V] used ONLY by the MosfetModel (simulator)
  /// interface (softplus; exponentially-vanishing off-tail); the
  /// closed-form path keeps the paper's hard clamp. Without it, Newton can
  /// limit-cycle on the piecewise-linear kink. The induced current error
  /// is ~K*eps*ln2 (microamps) — far below model accuracy.
  double eps_smooth = 1e-3;

  void validate() const;
};

/// ASDM as a standalone analytic device (the form the closed-form SSN
/// formulas use) and, secondarily, as a MosfetModel so the same fitted
/// device can be dropped into the MNA simulator (bulk assumed at true
/// ground, i.e. V_s = -vbs).
class AsdmModel final : public MosfetModel {
 public:
  explicit AsdmModel(AsdmParams params);

  const AsdmParams& params() const { return params_; }

  /// The paper's form: current as a function of absolute gate and source
  /// voltages (bulk at 0, drain high). Hard-clamped at zero.
  double ids_gate_source(double vg, double vs) const;

  // MosfetModel interface. vds is ignored (pure saturation model); the
  // bulk-referenced identity V_g - lambda*V_s = vgs - (lambda-1)*V_s with
  // V_s = -vbs recovers the paper's form.
  double ids(double vgs, double vds, double vbs) const override;
  MosfetEval evaluate(double vgs, double vds, double vbs) const override;
  std::unique_ptr<MosfetModel> clone() const override;

 private:
  AsdmParams params_;
};

}  // namespace ssnkit::devices
