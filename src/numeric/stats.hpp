// Small statistics helpers shared by the fit-quality reports and the
// model-vs-simulator comparison tables.
#pragma once

#include <cstddef>
#include <span>

namespace ssnkit::numeric {

double mean(std::span<const double> xs);
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);
/// Sample standard deviation (N-1 denominator); 0 for fewer than 2 samples.
double stddev(std::span<const double> xs);

/// |a − b| / max(|ref|, floor). The floor guards near-zero references.
double relative_error(double a, double b, double floor = 1e-12);

/// q-quantile (q in [0, 1]) by linear interpolation of the sorted sample,
/// whose two order statistics are found by selection, not a full sort.
/// Throws std::invalid_argument for empty input or q outside [0, 1].
double quantile(std::span<const double> xs, double q);

}  // namespace ssnkit::numeric
