#include "numeric/lu.hpp"

#include "support/contracts.hpp"
#include "support/diagnostics.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ssnkit::numeric {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  SSN_REQUIRE(lu_.rows() == lu_.cols(), "LuFactorization: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |entry| in column k at or below row k.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < std::numeric_limits<double>::min() * 16) {
      singular_ = true;
      continue;  // solve() refuses a singular factorization
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv_pivot;
      lu_(r, k) = m;
      if (m == 0.0) continue;  // ssnlint-ignore(SSN-L001)
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  const std::size_t n = size();
  SSN_REQUIRE(b.size() == n, "LuFactorization::solve: size mismatch");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "LuFactorization::solve";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }

  // Apply permutation, then forward/backward substitution.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) y[i] -= lu_(i, j) * y[j];
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) y[ii] -= lu_(ii, j) * y[j];
    y[ii] /= lu_(ii, ii);
  }
  // Back-substitution postcondition: a NaN/Inf in b (or catastrophic growth
  // from a near-singular pivot) must surface here, not downstream in Newton.
  SSN_ASSERT_FINITE(y);
  return y;
}

}  // namespace ssnkit::numeric
