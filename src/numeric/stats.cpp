#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>
#include <limits>
#include <stdexcept>

namespace ssnkit::numeric {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / double(xs.size());
}

double min_value(std::span<const double> xs) {
  double acc = std::numeric_limits<double>::infinity();
  for (double x : xs) acc = std::min(acc, x);
  return acc;
}

double max_value(std::span<const double> xs) {
  double acc = -std::numeric_limits<double>::infinity();
  for (double x : xs) acc = std::max(acc, x);
  return acc;
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / double(xs.size() - 1));
}

double relative_error(double a, double b, double floor) {
  if (floor <= 0.0) throw std::invalid_argument("relative_error: floor must be > 0");
  return std::fabs(a - b) / std::max(std::fabs(b), floor);
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q must be in [0, 1]");
  // The two order statistics the interpolation reads, found by selection:
  // the lo-th smallest, then the smallest of what lies above it, which is
  // the (lo + 1)-th of the sorted sample.
  std::vector<double> v(xs.begin(), xs.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const auto at_lo = v.begin() + std::ptrdiff_t(lo);
  std::nth_element(v.begin(), at_lo, v.end());
  const double lower = *at_lo;
  const double upper =
      lo + 1 < v.size() ? *std::min_element(at_lo + 1, v.end()) : lower;
  const double w = pos - double(lo);
  return (1.0 - w) * lower + w * upper;
}

}  // namespace ssnkit::numeric
