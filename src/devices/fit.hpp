// Parameter extraction:
//  * fit_asdm(): the paper's ASDM extraction — linear least squares of
//    I_D = K*(V_g − λ·V_s − V_x) over the SSN operating region of a golden
//    device (Fig. 1 of the paper).
//  * fit_alpha_power(): nonlinear extraction of (id0, vt0, alpha) from a
//    golden device, the calibration step the baseline formulas
//    (Senthinathan–Prince, Vemuru, Song) need.
#pragma once

#include "devices/alpha_power.hpp"
#include "devices/asdm.hpp"
#include "devices/mosfet_model.hpp"

namespace ssnkit::devices {

/// Sampling region for the ASDM fit. The paper fits where the SSN transient
/// actually operates: drain at V_DD, gate from "comfortably above
/// threshold" to V_DD, source (the bouncing ground) from 0 to a fraction of
/// V_DD. Near-threshold samples are excluded — the current there is
/// insignificant for SSN and even the alpha-power law is inaccurate there.
struct AsdmFitRegion {
  double vd = 1.8;      ///< drain bias (the supply)
  double vg_lo = 0.8;   ///< lower gate bound, above threshold
  double vg_hi = 1.8;   ///< upper gate bound (the supply)
  double vs_lo = 0.0;   ///< lower source bound
  double vs_hi = 0.8;   ///< upper source bound (max expected bounce)
  int n_vg = 26;        ///< gate grid points
  int n_vs = 9;         ///< source grid points

  void validate() const;
};

struct AsdmFitResult {
  AsdmParams params;
  double rms_error = 0.0;      ///< RMS residual over the fitted grid [A]
  double max_abs_error = 0.0;  ///< worst residual over the fitted grid [A]
  double max_rel_error = 0.0;  ///< worst residual / max fitted current
  std::size_t samples = 0;
};

/// Least-squares ASDM extraction from a golden model. Only grid points
/// where the golden device conducts (current above 2 % of the region's
/// maximum current) enter the fit — this is the paper's "discard the
/// near-threshold region" rule.
AsdmFitResult fit_asdm(const MosfetModel& golden, const AsdmFitRegion& region);

struct AlphaPowerFitResult {
  AlphaPowerParams params;
  double rms_error = 0.0;
  double max_rel_error = 0.0;
  bool converged = false;
};

/// Extract the saturation-region alpha-power parameters (id0, vt0, alpha)
/// from a golden device at vs = vb = 0, vd = vdd. vd0/gamma/phi2f/lambda of
/// the result are copied from `seed` (they do not affect the saturation
/// I(V_G) curve being fitted).
AlphaPowerFitResult fit_alpha_power(const MosfetModel& golden, double vdd,
                                    const AlphaPowerParams& seed,
                                    int n_samples = 41);

}  // namespace ssnkit::devices
