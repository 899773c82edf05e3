#include "numeric/roots.hpp"

#include <cmath>
#include <stdexcept>

namespace ssnkit::numeric {

namespace {

constexpr double kFTol = 1e-14;  // absolute tolerance on |f(x)|
constexpr int kMaxIterations = 200;

void require_bracket(double flo, double fhi) {
  if (std::isnan(flo) || std::isnan(fhi))
    throw std::invalid_argument("root finding: f is NaN at a bracket endpoint");
  if (flo * fhi > 0.0)
    throw std::invalid_argument("root finding: endpoints do not bracket a root");
}

}  // namespace

double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& opts) {
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return a;  // ssnlint-ignore(SSN-L001)
  if (fb == 0.0) return b;  // ssnlint-ignore(SSN-L001)
  require_bracket(fa, fb);
  if (std::fabs(fa) < std::fabs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool mflag = true;
  double d = 0.0;
  for (int i = 0; i < kMaxIterations; ++i) {
    if (std::fabs(fb) <= kFTol || std::fabs(b - a) <= opts.x_tol) return b;
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      s = b - fb * (b - a) / (fb - fa);  // secant
    }
    const double lo34 = (3.0 * a + b) / 4.0;
    const bool out_of_range = !((s > std::min(lo34, b)) && (s < std::max(lo34, b)));
    const bool slow = mflag ? std::fabs(s - b) >= std::fabs(b - c) / 2.0
                            : std::fabs(s - b) >= std::fabs(c - d) / 2.0;
    const bool tiny = mflag ? std::fabs(b - c) < opts.x_tol
                            : std::fabs(c - d) < opts.x_tol;
    if (out_of_range || slow || tiny) {
      s = 0.5 * (a + b);
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::fabs(fa) < std::fabs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return b;
}

}  // namespace ssnkit::numeric
