#include "numeric/polynomial.hpp"

#include <cmath>

namespace ssnkit::numeric {

double quadratic_discriminant(double a, double b, double c) {
  // Kahan's trick: compute b*b - 4ac with an error-compensated difference of
  // products so nearly-critically-damped systems classify correctly.
  const double p = b * b;
  const double q = 4.0 * a * c;
  const double err = std::fma(b, b, -p) - std::fma(4.0 * a, c, -q);
  return (p - q) + err;
}

std::optional<std::array<double, 2>> quadratic_real_roots(double a, double b,
                                                          double c) {
  if (a == 0.0) {  // ssnlint-ignore(SSN-L001)
    if (b == 0.0) return std::nullopt;  // degenerate: c == 0 everywhere or never  ssnlint-ignore(SSN-L001)
    const double r = -c / b;
    return std::array<double, 2>{r, r};
  }
  const double disc = quadratic_discriminant(a, b, c);
  if (disc < 0.0) return std::nullopt;
  const double sq = std::sqrt(disc);
  // q has the same sign as b to avoid cancellation in -b ± sq.
  const double q = -0.5 * (b + std::copysign(sq, b));
  double r1, r2;
  if (q == 0.0) {  // ssnlint-ignore(SSN-L001)
    r1 = 0.0;
    r2 = 0.0;
  } else {
    r1 = q / a;
    r2 = c / q;
  }
  if (r1 > r2) std::swap(r1, r2);
  return std::array<double, 2>{r1, r2};
}

}  // namespace ssnkit::numeric
