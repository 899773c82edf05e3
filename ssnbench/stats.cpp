#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ssnbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p * double(n) - 1e-9);
  return std::clamp<std::size_t>(std::size_t(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = long(v.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const long m = ld + 1;
  double out[3] = {0.0, 0.0, 0.0};
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[std::size_t(j - 1)] * double(4 - delta) +
                  v[std::size_t(j)] * double(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

double relative_iqr(const std::vector<double>& v) {
  const double med = median(v);
  if (v.size() < 2 || med == 0.0) return 0.0;
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / std::fabs(med);
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kBetter: return "better";
    case Verdict::kWorse: return "worse";
    case Verdict::kWithin: return "within";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

Verdict judge(const std::vector<double>& parent,
              const std::vector<double>& change, double bound,
              bool higher_is_better) {
  const auto better = [higher_is_better](double a, double b) {
    return higher_is_better ? a > b : a < b;
  };
  const double med_p = median(parent);
  const double med_c = median(change);
  const double scale = std::fabs(med_p) > 0.0 ? std::fabs(med_p) : 1.0;
  // Positive = the change is worse, as a share of the parent's median.
  const double worse_by =
      (higher_is_better ? med_p - med_c : med_c - med_p) / scale;

  bool all_better = !parent.empty() && !change.empty();
  bool all_worse = all_better;
  for (const double c : change)
    for (const double p : parent) {
      if (!better(c, p)) all_better = false;
      if (!better(p, c)) all_worse = false;
    }

  const double spread = std::max(relative_iqr(parent), relative_iqr(change));
  if (spread > bound && !all_better && !all_worse) return Verdict::kUnresolved;
  if (worse_by > bound) return Verdict::kWorse;

  const std::size_t pairs = std::min(parent.size(), change.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i)
    if (better(change[i], parent[i])) ++wins;
  const Quartiles qp = quartiles(parent);
  const bool clear_of_spread = std::fabs(med_c - med_p) > qp.q3 - qp.q1;
  if (pairs > 0 && double(wins) >= 0.9 * double(pairs) && worse_by < 0.0 &&
      clear_of_spread)
    return Verdict::kBetter;
  return Verdict::kWithin;
}

double hit_ratio(double hits, double total) {
  return total > 0.0 ? hits / total : 0.0;
}

bool hit_ratio_matches(double measured, double configured, double tolerance) {
  return std::fabs(measured - configured) <= tolerance;
}

double relative_deviation(double value, double reference) {
  if (!std::isfinite(value) || !std::isfinite(reference))
    return std::numeric_limits<double>::infinity();
  const double diff = std::fabs(value - reference);
  return reference == 0.0 ? diff : diff / std::fabs(reference);
}

bool matches_reference(double value, double reference, double tolerance) {
  return relative_deviation(value, reference) <= tolerance;
}

}  // namespace ssnbench
