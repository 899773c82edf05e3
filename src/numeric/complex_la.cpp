#include "numeric/complex_la.hpp"

#include "support/contracts.hpp"
#include "support/diagnostics.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace ssnkit::numeric {

void CVector::fill(Complex value) {
  for (auto& x : data_) x = value;
}

void CMatrix::fill(Complex value) {
  for (auto& x : data_) x = value;
}

CLuFactorization::CLuFactorization(CMatrix a) : lu_(std::move(a)) {
  SSN_REQUIRE(lu_.rows() == lu_.cols(),
              "CLuFactorization: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < std::numeric_limits<double>::min() * 16) {
      singular_ = true;
      continue;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const Complex inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex m = lu_(r, k) * inv_pivot;
      lu_(r, k) = m;
      if (m == Complex{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
}

CVector CLuFactorization::solve(const CVector& b) const {
  const std::size_t n = size();
  SSN_REQUIRE(b.size() == n, "CLuFactorization::solve: size");
  if (singular_) {
    support::SolverDiagnostics diag;
    diag.where = "CLuFactorization::solve";
    throw support::SolverError(support::SolverErrorKind::kSingularMatrix,
                               "singular matrix", std::move(diag));
  }
  CVector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) y[i] -= lu_(i, j) * y[j];
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) y[ii] -= lu_(ii, j) * y[j];
    y[ii] /= lu_(ii, ii);
  }
  return y;
}

}  // namespace ssnkit::numeric
