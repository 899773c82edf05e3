// Monte Carlo SSN analysis: propagate process variation (on the fitted
// ASDM constants) and package variation (on L and C) through the closed
// forms to a noise distribution. Because one Table 1 evaluation costs tens
// of nanoseconds, thousands of corners are effectively free — the practical
// payoff of the paper's closed-form approach.
#pragma once

#include "analysis/batch.hpp"
#include "analysis/calibrate.hpp"
#include "core/scenario.hpp"
#include "support/runcontext.hpp"
#include "verify/trust.hpp"

#include <cstddef>
#include <vector>

namespace ssnkit::analysis {

/// Relative (1-sigma, Gaussian) variations applied multiplicatively; the
/// defaults are representative process/assembly spreads.
struct MonteCarloOptions {
  int samples = 1000;
  /// Seed of the Gaussian stream, numeric::NormalStream: the draws of
  /// std::normal_distribution<double>(0, 1) over std::mt19937 as libstdc++
  /// makes them, on any standard library. Fixed default so every run
  /// reproduces the same sample set bit-for-bit; vary it explicitly to get
  /// independent replicates. Identical seed + options => identical samples.
  unsigned seed = 12345;
  double sigma_k = 0.05;       ///< transconductance K
  double sigma_lambda = 0.02;  ///< source-coupling factor
  double sigma_vx = 0.03;      ///< voltage displacement V_x
  double sigma_l = 0.10;       ///< bond/package inductance
  double sigma_c = 0.10;       ///< pad capacitance
  double sigma_slope = 0.05;   ///< input edge rate
  /// Worker threads for the sample loop: 1 = serial (default), 0 = auto
  /// (hardware concurrency). Factors are drawn up front and samples write
  /// index-addressed slots, so the result is bit-identical for any value.
  int threads = 1;
  /// Optional lifecycle context: workers poll it between samples and a stop
  /// drains the batch, keeping whatever samples already finished. Not owned.
  const support::RunContext* run_ctx = nullptr;

  void validate() const;
};

struct MonteCarloResult {
  std::vector<double> samples;  ///< every sampled V_max [V]
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p95 = 0.0;  ///< 95th percentile — the design sign-off number
  double p99 = 0.0;
  /// 95 % confidence-interval half-width on `mean` (1.96 * stddev / sqrt(N)):
  /// the statistical-trust figure the TrustReport carries. Shrinks ~1/sqrt(N);
  /// without it a Monte-Carlo mean is a number with no error bar.
  double ci95 = 0.0;
  /// Fraction of samples whose damping region differs from the nominal
  /// scenario's (region flips matter: they change which formula applies).
  double region_flip_fraction = 0.0;
  /// Samples actually evaluated (== `samples.size()`; less than the
  /// requested count only when the run was stopped early). Which samples a
  /// stopped *parallel* run keeps depends on worker timing — partial
  /// closed-form results are best-effort, not reproducible; only a run that
  /// completes is bit-identical across thread counts.
  std::size_t completed = 0;
  support::StopReason stop = support::StopReason::kNone;
};

/// Sample V_max over the variation space. Uses LcModel when the nominal
/// scenario has capacitance, LOnlyModel otherwise.
MonteCarloResult monte_carlo_vmax(const core::SsnScenario& nominal,
                                  const MonteCarloOptions& opts = {});

// --- simulation-level Monte Carlo (failure tolerant) -------------------------

/// Options for the simulator-backed Monte Carlo. Each sample perturbs the
/// package parasitics (relative sigma 10 % on L and C), the input edge and
/// the driver width (5 % each; the width scales the fitted K) and runs the
/// full MNA transient through the batch core; a failing sample degrades to
/// a recovery rung or, when its whole simulation ladder fails, to the
/// calibrated closed form (tagged kAnalytic). Failures never abort the
/// batch.
struct SimMonteCarloOptions {
  int samples = 16;  ///< full transients are costly; keep batches small
  unsigned seed = 12345;  ///< as MonteCarloOptions::seed
  /// Threads, lifecycle and checkpoint/resume.
  BatchOptions batch;

  void validate() const;
};

/// One Monte Carlo sample: the drawn variation factors and the outcome.
/// Factors are drawn for every sample up front in a fixed order, so the
/// sample set is identical whether or not any sample later fails — surviving
/// samples are bit-for-bit reproducible under fault injection.
struct SimMcSample {
  int index = 0;
  double l_factor = 1.0;
  double c_factor = 1.0;
  double rise_factor = 1.0;
  double width_factor = 1.0;
  double v_max = 0.0;  ///< meaningful only when fidelity != kFailed
  sim::Fidelity fidelity = sim::Fidelity::kFailed;
  /// Trust verdict of the sample's measurement (journaled, so a resumed
  /// sample replays the verdict it earned when it actually ran).
  verify::Verdict verdict = verify::Verdict::kUnverified;
  /// Whether this sample actually ran (or was restored): false means the
  /// lifecycle layer stopped the batch before the sample finished.
  bool completed = false;
  /// Restored from a journal rather than simulated in this process. The
  /// *outcome* fields are bit-identical either way; only this flag differs.
  bool resumed = false;
};

struct SimMonteCarloResult {
  std::vector<SimMcSample> samples;  ///< one entry per drawn sample
  std::size_t surviving = 0;  ///< completed samples with fidelity != kFailed
  std::size_t completed = 0;  ///< samples that ran (or restored) to the end
  std::size_t resumed = 0;    ///< of those, how many came from the journal
  /// Why the batch stopped early (kNone when every sample completed).
  support::StopReason stop = support::StopReason::kNone;
  /// Statistics over the surviving samples' V_max.
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// 95 % confidence-interval half-width on `mean` over the survivors.
  double ci95 = 0.0;
  BatchSummary summary;
  /// Merged trust over the surviving samples (worst verdict wins) with
  /// `ci95` mirrored into the statistical-confidence slot.
  verify::TrustReport trust;
};

/// Simulator-backed Monte Carlo over (L, C, rise time, driver width) for the
/// standard SSN bench at `n_drivers`/`rise_time`, resilient per sample.
SimMonteCarloResult monte_carlo_vmax_sim(const Calibration& cal,
                                         const process::Package& package,
                                         int n_drivers, double rise_time,
                                         bool include_c,
                                         const SimMonteCarloOptions& opts = {});

}  // namespace ssnkit::analysis
