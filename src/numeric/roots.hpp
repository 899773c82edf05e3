// Scalar root finding. The implicit baseline SSN formulas (Senthinathan–
// Prince, Vemuru, Song) are fixed-point equations in V_max and are solved
// with the bracketing Brent routine here.
#pragma once

#include <functional>

namespace ssnkit::numeric {

/// Options for brent().
struct RootOptions {
  double x_tol = 1e-12;  ///< absolute tolerance on the root
};

/// Brent's method on a bracketing interval [lo, hi]: inverse quadratic
/// interpolation + secant, falling back to bisection. Superlinear and safe.
double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& opts = {});

}  // namespace ssnkit::numeric
