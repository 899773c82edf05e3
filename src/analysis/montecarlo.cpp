#include "analysis/montecarlo.hpp"

#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "numeric/normal_stream.hpp"
#include "numeric/stats.hpp"
#include "support/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::analysis {

namespace {

// Relative sigmas of the simulator-backed Monte Carlo's variation factors.
constexpr double kSimSigmaL = 0.10;      // package inductance
constexpr double kSimSigmaC = 0.10;      // pad capacitance
constexpr double kSimSigmaRise = 0.05;   // input rise time
constexpr double kSimSigmaWidth = 0.05;  // driver width (scales the fitted K)

}  // namespace

void MonteCarloOptions::validate() const {
  if (samples < 2)
    throw std::invalid_argument("MonteCarloOptions: samples must be >= 2");
  for (double s : {sigma_k, sigma_lambda, sigma_vx, sigma_l, sigma_c, sigma_slope})
    if (s < 0.0 || s > 0.5)
      throw std::invalid_argument(
          "MonteCarloOptions: sigmas must be in [0, 0.5] (relative)");
}

MonteCarloResult monte_carlo_vmax(const core::SsnScenario& nominal,
                                  const MonteCarloOptions& opts) {
  opts.validate();
  nominal.validate();

  const bool with_c = nominal.capacitance > 0.0;
  const core::DampingRegion nominal_region =
      with_c ? core::LcModel(nominal).region()
             : core::DampingRegion::kOverDamped;

  // Draw every sample's multiplicative factors up front, in the exact order
  // the serial loop consumed the Gaussian stream (k, lambda, vx, L, [C],
  // S), clamped so no parameter collapses or flips sign in the far tails.
  // Hoisting the draws is what makes the parallel evaluation below
  // bit-identical to serial for any thread count.
  numeric::NormalStream gauss(opts.seed);
  const auto draw = [&](double sigma) {
    return std::clamp(1.0 + sigma * gauss.next(), 0.2, 1.8);
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

  MonteCarloResult out;
  out.samples.resize(std::size_t(opts.samples));
  std::vector<unsigned char> flipped(std::size_t(opts.samples), 0);
  std::vector<unsigned char> done(std::size_t(opts.samples), 0);
  support::parallel_for_index(
      opts.threads, std::size_t(opts.samples),
      [&](std::size_t i) {
        const double* f = &factors[i * stride];
        core::SsnScenario s = nominal;
        std::size_t k = 0;
        s.device.k *= f[k++];
        s.device.lambda = std::max(1.0, s.device.lambda * f[k++]);
        s.device.vx *= f[k++];
        s.inductance *= f[k++];
        if (with_c) s.capacitance *= f[k++];
        s.slope *= f[k++];
        // The factors keep C > 0, so the model choice is the nominal's, and
        // one LcModel gives both V_max and the damping region.
        if (with_c) {
          const core::LcModel model(s);
          out.samples[i] = model.v_max();
          flipped[i] = model.region() != nominal_region;
        } else {
          out.samples[i] = core::LOnlyModel(s).v_max();
        }
        done[i] = 1;
      },
      opts.run_ctx);

  // Keep the samples that finished, in index order: all of them unless the
  // run was stopped. Which ones a stopped parallel run keeps depends on
  // worker timing — a partial closed-form population is best-effort, see
  // the header comment.
  std::size_t kept = 0;
  int flips = 0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (!done[i]) continue;
    out.samples[kept++] = out.samples[i];
    flips += flipped[i];
  }
  out.samples.resize(kept);
  out.completed = kept;
  // Only report a stop that actually cost samples: workers can observe a
  // trip that lands after the final item was already claimed.
  if (kept < done.size() && opts.run_ctx != nullptr)
    out.stop = opts.run_ctx->stop_reason();
  if (kept == 0) return out;

  out.mean = numeric::mean(out.samples);
  out.stddev = kept > 1 ? numeric::stddev(out.samples) : 0.0;
  out.min = numeric::min_value(out.samples);
  out.max = numeric::max_value(out.samples);
  out.p95 = numeric::quantile(out.samples, 0.95);
  out.p99 = numeric::quantile(out.samples, 0.99);
  out.ci95 = kept > 1 ? 1.96 * out.stddev / std::sqrt(double(kept)) : 0.0;
  out.region_flip_fraction = double(flips) / double(kept);
  return out;
}

void SimMonteCarloOptions::validate() const {
  if (samples < 1)
    throw std::invalid_argument("SimMonteCarloOptions: samples must be >= 1");
}

SimMonteCarloResult monte_carlo_vmax_sim(const Calibration& cal,
                                         const process::Package& package,
                                         int n_drivers, double rise_time,
                                         bool include_c,
                                         const SimMonteCarloOptions& opts) {
  opts.validate();
  package.validate();
  if (!(rise_time > 0.0))
    throw std::invalid_argument("monte_carlo_vmax_sim: rise_time must be > 0");

  // Draw every sample's factors up front, in a fixed order, so the sample
  // set never depends on which simulations later fail (or get injected
  // faults): survivors stay bit-for-bit comparable across runs.
  numeric::NormalStream gauss(opts.seed);
  const auto vary = [&](double sigma) {
    return std::clamp(1.0 + sigma * gauss.next(), 0.2, 1.8);
  };
  SimMonteCarloResult out;
  out.samples.resize(std::size_t(opts.samples));
  for (int i = 0; i < opts.samples; ++i) {
    SimMcSample& s = out.samples[std::size_t(i)];
    s.index = i;
    s.l_factor = vary(kSimSigmaL);
    s.c_factor = vary(kSimSigmaC);
    s.rise_factor = vary(kSimSigmaRise);
    s.width_factor = vary(kSimSigmaWidth);
  }

  // One batch point per sample: K scales with the driver width, everything
  // else comes from the perturbed package and edge.
  std::vector<BatchPoint> points;
  points.reserve(out.samples.size());
  for (const SimMcSample& s : out.samples) {
    process::Package pkg = package;
    pkg.inductance *= s.l_factor;
    pkg.capacitance *= s.c_factor;
    BatchPoint p = bench_point(cal, pkg, n_drivers, rise_time * s.rise_factor,
                               include_c, "sample=" + std::to_string(s.index));
    p.spec.driver_width_mult = s.width_factor;
    p.scenario.device.k *= s.width_factor;
    points.push_back(std::move(p));
  }
  const BatchRun run =
      run_batch(points, opts.batch, /*analytic_fallback=*/true);

  std::vector<double> survivors;
  survivors.reserve(out.samples.size());
  for (SimMcSample& s : out.samples) {
    const PointOutcome& pt = run.points[std::size_t(s.index)];
    s.completed = pt.state != PointOutcome::State::kNotRun;
    s.resumed = pt.state == PointOutcome::State::kResumed;
    s.fidelity = pt.fidelity;
    s.verdict = pt.trust.verdict;
    if (!pt.ok()) continue;
    s.v_max = pt.v_max;
    survivors.push_back(s.v_max);
  }
  out.summary = run.summary;
  out.stop = run.summary.stop;
  out.completed = run.summary.total;
  out.resumed = run.resumed;
  out.trust = run.trust;
  out.surviving = survivors.size();
  if (!survivors.empty()) {
    out.mean = numeric::mean(survivors);
    out.stddev = survivors.size() > 1 ? numeric::stddev(survivors) : 0.0;
    out.min = numeric::min_value(survivors);
    out.max = numeric::max_value(survivors);
    out.ci95 = survivors.size() > 1
                   ? 1.96 * out.stddev / std::sqrt(double(survivors.size()))
                   : 0.0;
    out.trust.ci95 = out.ci95;
  }
  return out;
}

}  // namespace ssnkit::analysis
