// Dense LU factorization with partial pivoting — the solver of the
// Levenberg–Marquardt damped normal equations (the MNA engine factors its
// Jacobians with numeric::SparseFactor).
#pragma once

#include "numeric/matrix.hpp"

#include <vector>

namespace ssnkit::numeric {

/// LU factorization of a square matrix with row partial pivoting.
///
/// Throws std::invalid_argument for non-square input. A numerically
/// singular matrix is detected at factorization time (`singular()` returns
/// true) and `solve()` on it throws std::runtime_error.
class LuFactorization {
 public:
  explicit LuFactorization(Matrix a);

  bool singular() const { return singular_; }
  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b. b.size() must equal size().
  Vector solve(const Vector& b) const;

 private:
  Matrix lu_;                 // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

}  // namespace ssnkit::numeric
