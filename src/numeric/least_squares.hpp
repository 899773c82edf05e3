// Linear least squares on top of Householder QR.
#pragma once

#include "numeric/matrix.hpp"

namespace ssnkit::numeric {

/// Result of a linear least-squares solve.
struct LeastSquaresResult {
  Vector coefficients;     ///< fitted parameter vector
  double residual_norm = 0.0;  ///< ||A x − b||_2
  double residual_rms = 0.0;   ///< residual_norm / sqrt(#rows)
};

/// Minimize ||A x − b||_2. A must have rows >= cols and full column rank.
LeastSquaresResult solve_least_squares(const Matrix& a, const Vector& b);

}  // namespace ssnkit::numeric
