// The benchmark's arithmetic: percentiles with the sample-count rule,
// quartiles as the acceptance check computes them, the regression verdict,
// and the two correctness tolerances. Every rule here is covered by
// `ssnbench --self-test`, which runs before every benchmark run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ssnbench {

double median(std::vector<double> v);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);

/// Samples strictly above the nearest-rank position of percentile p.
std::size_t samples_beyond(std::size_t n, double p);

/// Whether percentile p is reportable: at least ten samples beyond it.
bool percentile_supported(std::size_t n, double p);

struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), which the acceptance check uses.
Quartiles quartiles(std::vector<double> v);

/// (q3 - q1) / median: the run-to-run spread of one metric.
double relative_iqr(const std::vector<double>& v);

enum class Verdict { kBetter, kWorse, kWithin, kUnresolved };
const char* to_string(Verdict v);

/// Judge a change's runs against the parent's for one metric with
/// regression bound `bound` (a share of the parent's median):
///   unresolved  either side's spread is wider than the bound, and neither
///               side beats the other in every run;
///   worse       the change's median is worse by more than the bound;
///   better      the change wins at least 9/10 of the index-paired runs and
///               the medians differ by more than the parent's IQR;
///   within      otherwise.
Verdict judge(const std::vector<double>& parent,
              const std::vector<double>& change, double bound,
              bool higher_is_better);

/// hits / total, 0 when total is 0.
double hit_ratio(double hits, double total);

/// Whether a measured cache-hit ratio matches the configured repeat share.
bool hit_ratio_matches(double measured, double configured,
                       double tolerance = 0.05);

/// Relative deviation of `value` from `reference`; absolute deviation when
/// the reference is 0; infinity when either is not finite.
double relative_deviation(double value, double reference);

/// The output check: relative deviation at most `tolerance` (1e-3 against
/// a committed reference, 0 against an earlier output of the same input).
bool matches_reference(double value, double reference,
                       double tolerance = 1e-3);

}  // namespace ssnbench
