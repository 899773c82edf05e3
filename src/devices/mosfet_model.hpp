// Abstract MOSFET model interface. All models are written for an n-channel
// device in forward operation; the circuit-level Mosfet element handles
// p-channel devices and reverse (vds < 0) operation by terminal reflection.
//
// Conventions:
//   vgs, vds, vbs are terminal voltage differences in volts,
//   ids is the drain-to-source current in amperes (>= 0 in forward mode).
#pragma once

#include <memory>

namespace ssnkit::devices {

/// Current plus its small-signal derivatives, as needed by the MNA
/// Newton–Raphson linearization.
struct MosfetEval {
  double ids = 0.0;  ///< drain current [A]
  double gm = 0.0;   ///< d ids / d vgs [S]
  double gds = 0.0;  ///< d ids / d vds [S]
  double gmb = 0.0;  ///< d ids / d vbs [S]
};

class MosfetModel {
 public:
  virtual ~MosfetModel() = default;

  /// Drain current for an NMOS in forward operation (vds >= 0 expected;
  /// implementations must return something finite for any input).
  virtual double ids(double vgs, double vds, double vbs) const = 0;

  /// Current plus its analytic derivatives: evaluate(...).ids equals
  /// ids(...) bit for bit. The models clamp vds at 0; for vds <= 0, vds = 0
  /// included, gds is the clamp's flat-side 0. The MOSFET element makes one
  /// call per stamp.
  virtual MosfetEval evaluate(double vgs, double vds, double vbs) const = 0;

  virtual std::unique_ptr<MosfetModel> clone() const = 0;

 protected:
  MosfetModel() = default;
  MosfetModel(const MosfetModel&) = default;
  MosfetModel& operator=(const MosfetModel&) = default;
};

/// Width-scaling adapter: multiplies the wrapped model's current by a
/// constant factor (W/W_nominal). Lets one parameter set serve drivers of
/// any strength.
class ScaledMosfetModel final : public MosfetModel {
 public:
  ScaledMosfetModel(std::unique_ptr<MosfetModel> inner, double factor);

  double factor() const { return factor_; }
  const MosfetModel& inner() const { return *inner_; }

  double ids(double vgs, double vds, double vbs) const override;
  MosfetEval evaluate(double vgs, double vds, double vbs) const override;
  std::unique_ptr<MosfetModel> clone() const override;

 private:
  std::unique_ptr<MosfetModel> inner_;
  double factor_;
};

/// A function's value and its derivative at one point.
struct ValueSlope {
  double value = 0.0;
  double slope = 0.0;
};

/// Softplus rectifier eps*log(1+exp(x/eps)): ->0 for x << 0, ->x for
/// x >> 0, C-infinity everywhere. Used by the device models to keep Newton
/// iterations differentiable across the off/on boundary; `eps` sets the
/// blending width in volts. Its off-tail vanishes exponentially (an
/// algebraic rectifier's decays only as eps^2/|x|, which leaks visible
/// current through gigaohm-scale anchors).
double softplus(double x, double eps);

/// softplus and its derivative (the logistic function) from one exp.
ValueSlope softplus_with_slope(double x, double eps);

/// Body-effect threshold shift: vt = vt0 + gamma*(sqrt(phi2f+vsb)-sqrt(phi2f))
/// with vsb clamped at -phi2f/2 to stay real under forward body bias.
double body_effect_vt(double vt0, double gamma, double phi2f, double vsb);

/// body_effect_vt and d vt / d vsb, which is 0 past the clamp.
ValueSlope body_effect_vt_with_slope(double vt0, double gamma, double phi2f,
                                     double vsb);

}  // namespace ssnkit::devices
