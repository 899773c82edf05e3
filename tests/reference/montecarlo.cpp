#include "reference/montecarlo.hpp"

#include "analysis/design.hpp"
#include "core/lc_model.hpp"
#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <sstream>
#include <vector>

namespace ssnkit::reference {

double sorted_quantile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * double(sorted.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double w = pos - double(lo);
  return (1.0 - w) * sorted[lo] + w * sorted[hi];
}

analysis::MonteCarloResult monte_carlo_vmax(
    const core::SsnScenario& nominal, const analysis::MonteCarloOptions& opts) {
  opts.validate();
  nominal.validate();

  const bool with_c = nominal.capacitance > 0.0;
  const core::DampingRegion nominal_region =
      with_c ? core::LcModel(nominal).region()
             : core::DampingRegion::kOverDamped;

  std::mt19937 rng(opts.seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  const auto draw = [&](double sigma) {
    return std::clamp(1.0 + sigma * gauss(rng), 0.2, 1.8);
  };
  const std::size_t stride = with_c ? 6 : 5;
  std::vector<double> factors(std::size_t(opts.samples) * stride);
  for (int i = 0; i < opts.samples; ++i) {
    double* f = &factors[std::size_t(i) * stride];
    std::size_t k = 0;
    f[k++] = draw(opts.sigma_k);
    f[k++] = draw(opts.sigma_lambda);
    f[k++] = draw(opts.sigma_vx);
    f[k++] = draw(opts.sigma_l);
    if (with_c) f[k++] = draw(opts.sigma_c);
    f[k++] = draw(opts.sigma_slope);
  }

  analysis::MonteCarloResult out;
  out.samples.resize(std::size_t(opts.samples));
  int flips = 0;
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    const double* f = &factors[i * stride];
    core::SsnScenario s = nominal;
    std::size_t k = 0;
    s.device.k *= f[k++];
    s.device.lambda = std::max(1.0, s.device.lambda * f[k++]);
    s.device.vx *= f[k++];
    s.inductance *= f[k++];
    if (with_c) s.capacitance *= f[k++];
    s.slope *= f[k++];
    out.samples[i] = analysis::predict_vmax(s);
    if (with_c && core::LcModel(s).region() != nominal_region) ++flips;
  }

  const std::size_t kept = out.samples.size();
  out.completed = kept;
  out.mean = numeric::mean(out.samples);
  out.stddev = kept > 1 ? numeric::stddev(out.samples) : 0.0;
  out.min = numeric::min_value(out.samples);
  out.max = numeric::max_value(out.samples);
  out.p95 = sorted_quantile(out.samples, 0.95);
  out.p99 = sorted_quantile(out.samples, 0.99);
  out.ci95 = kept > 1 ? 1.96 * out.stddev / std::sqrt(double(kept)) : 0.0;
  out.region_flip_fraction = double(flips) / double(kept);
  return out;
}

std::string stream_number(double value) {
  std::ostringstream ss;
  ss.precision(17);
  ss << value;
  return ss.str();
}

}  // namespace ssnkit::reference
