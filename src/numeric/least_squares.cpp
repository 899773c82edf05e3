#include "numeric/least_squares.hpp"

#include "numeric/qr.hpp"
#include "support/contracts.hpp"

#include <cmath>

namespace ssnkit::numeric {

LeastSquaresResult solve_least_squares(const Matrix& a, const Vector& b) {
  SSN_REQUIRE(a.rows() == b.size(), "solve_least_squares: row count mismatch");
  QrFactorization qr(a);
  LeastSquaresResult result;
  result.coefficients = qr.solve(b);
  result.residual_norm = qr.residual_norm(b);
  result.residual_rms =
      a.rows() == 0 ? 0.0 : result.residual_norm / std::sqrt(double(a.rows()));
  return result;
}

}  // namespace ssnkit::numeric
