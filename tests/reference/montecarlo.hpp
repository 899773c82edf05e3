// The closed-form Monte Carlo and JSON number rendering as they were before
// their fast paths. They are NOT used by the library; the tests hold
// analysis::monte_carlo_vmax, numeric::quantile and serve::json_number
// against them bit for bit.
#pragma once

#include "analysis/montecarlo.hpp"
#include "core/scenario.hpp"

#include <span>
#include <string>

namespace ssnkit::reference {

/// q-quantile by linear interpolation over a full sort of the sample.
double sorted_quantile(std::span<const double> xs, double q);

/// analysis::monte_carlo_vmax's earlier algorithm, run serially to the end:
/// std::normal_distribution<double> over std::mt19937, analysis::predict_vmax
/// plus a second LcModel for the damping region, and sorted_quantile.
/// Ignores opts.threads and opts.run_ctx.
analysis::MonteCarloResult monte_carlo_vmax(
    const core::SsnScenario& nominal, const analysis::MonteCarloOptions& opts);

/// A double printed by a std::ostringstream at precision 17.
std::string stream_number(double value);

}  // namespace ssnkit::reference
