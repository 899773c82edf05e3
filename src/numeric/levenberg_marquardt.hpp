// Levenberg–Marquardt nonlinear least squares. Used to extract
// alpha-power-law parameters (B, V_T, alpha) from a golden device model —
// the step a designer would run against foundry BSIM data before using the
// Vemuru/Song baseline formulas.
#pragma once

#include "numeric/matrix.hpp"

#include <functional>

namespace ssnkit::numeric {

/// Residual function: given parameters p, fill r with the residual vector.
/// The residual size must stay constant across calls.
using ResidualFn = std::function<void(const Vector& p, Vector& r)>;

struct LmOptions {
  /// Optional per-parameter lower/upper bounds (empty = unbounded).
  Vector lower_bounds;
  Vector upper_bounds;
};

struct LmResult {
  Vector parameters;
  double residual_norm = 0.0;  ///< ||r||_2 at the solution
  int iterations = 0;
  bool converged = false;
};

/// Minimize ||r(p)||² starting from p0. The Jacobian is computed by forward
/// finite differences. Residual size m must be >= parameter count n.
LmResult levenberg_marquardt(const ResidualFn& residual, Vector p0,
                             std::size_t residual_size,
                             const LmOptions& opts = {});

}  // namespace ssnkit::numeric
