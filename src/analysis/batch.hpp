// The one resilient batch core behind every simulated analysis batch: the
// driver-count (Fig. 3) and pad-capacitance (Fig. 4) sweeps and the
// simulator-backed Monte Carlo. A batch is a list of points, each a
// testbench spec plus its calibrated closed form. The core measures every
// point under the recovery ladder, in parallel, with cooperative stops and
// checkpoint/resume, then replays the bookkeeping in index order. The
// drivers only map their axis onto points and the outcomes onto their rows.
//
// Determinism contract: each point runs in its own FaultSampleScope and
// writes only its index-addressed slot; the summary, survivor trust and
// counts are replayed in index order after the join. The outcome is
// therefore bit-identical for any thread count, and a resumed batch is
// bit-identical to an uninterrupted one.
#pragma once

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "circuit/testbench.hpp"
#include "core/scenario.hpp"
#include "sim/recovery.hpp"
#include "support/diagnostics.hpp"
#include "support/journal.hpp"
#include "support/runcontext.hpp"
#include "verify/trust.hpp"

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ssnkit::analysis {

/// The settings every simulated batch shares.
struct BatchOptions {
  /// Worker threads: 1 = serial (default), 0 = auto. Results are
  /// bit-identical for any value.
  int threads = 1;
  /// Transient settings for every point. t_start/t_stop are filled in, and
  /// dt_max <= 0 resolves to the point's input rise time / 200.
  sim::TransientOptions transient;
  /// Optional lifecycle context: gates each point (try_start_item) and is
  /// threaded into its transient. A stop drains the batch; unstarted and
  /// interrupted points are not-run and never journaled, so a resume re-runs
  /// them and lands on the uninterrupted result. Not owned.
  const support::RunContext* run_ctx = nullptr;
  /// Optional checkpoint journal: each completed point is recorded the
  /// moment it finishes. Not owned.
  support::BatchJournal* journal = nullptr;
  /// Optional resume set (a loaded, validated journal's items): points found
  /// here are restored instead of simulated, without charging the item
  /// budget, and re-recorded into `journal`. Not owned.
  const std::map<std::size_t, support::PointRecord>* resume = nullptr;
};

/// One point of a batch.
struct BatchPoint {
  circuit::SsnBenchSpec spec;
  /// The point's calibrated closed form: the analytic fallback, and what
  /// the drivers evaluate for their model columns.
  core::SsnScenario scenario;
  std::string label;  ///< names the point in summary notes ("n=4")
};

/// Aggregated outcome of a batch (a sweep or a Monte Carlo population):
/// how many items landed at each fidelity and which error kinds were seen.
struct BatchSummary {
  std::size_t total = 0;
  std::size_t full_fidelity = 0;  ///< fidelity == kFullDevice
  std::size_t recovered = 0;      ///< simulation rungs 1-4
  std::size_t analytic = 0;       ///< degraded to the closed forms
  std::size_t failed = 0;         ///< no rung succeeded
  /// Items the lifecycle layer never ran (cancel / deadline / item budget
  /// drained the batch before they started). Not counted in `total`.
  std::size_t not_run = 0;
  /// Why the batch stopped early (kNone for a run that completed).
  support::StopReason stop = support::StopReason::kNone;
  std::map<std::string, std::size_t> by_fidelity;  ///< fidelity name -> count
  std::map<std::string, std::size_t> by_error;     ///< error kind -> count
  /// One line per degraded or failed item ("label: fidelity [error]").
  std::vector<std::string> notes;

  void record(const std::string& label, sim::Fidelity fidelity,
              const std::optional<support::SolverError>& error);
  bool all_full_fidelity() const { return full_fidelity == total; }
  std::string to_string() const;
};

/// What one point came to.
struct PointOutcome {
  enum class State { kNotRun, kRan, kResumed };
  State state = State::kNotRun;
  sim::Fidelity fidelity = sim::Fidelity::kFailed;
  double v_max = 0.0;  ///< meaningful only when ok()
  /// The measurement's trust; a resumed point restores only the verdict.
  verify::TrustReport trust;
  std::optional<support::SolverError> error;

  bool ok() const {
    return state != State::kNotRun && fidelity != sim::Fidelity::kFailed;
  }
};

struct BatchRun {
  std::vector<PointOutcome> points;  ///< one per input point, in order
  /// Every point that ran or was restored, recorded in index order, plus
  /// the not-run count and the stop that caused it.
  BatchSummary summary;
  std::size_t resumed = 0;  ///< points restored from the resume set
  /// Trust merged over the surviving points (worst verdict wins).
  verify::TrustReport trust;
};

/// Measure every point under the recovery ladder; a point that still fails
/// is accounted in the summary, it never aborts the batch. With
/// `analytic_fallback`, each simulated point is physics-checked against its
/// closed form, and a point whose whole simulation ladder failed degrades to
/// that closed form (tagged kAnalytic) instead of failing. Throws
/// std::invalid_argument for a resume record with out-of-range fields.
BatchRun run_batch(const std::vector<BatchPoint>& points,
                   const BatchOptions& opts, bool analytic_fallback);

/// The point for the standard bench at (package, n, rise time): spec and
/// closed form from the same calibration.
BatchPoint bench_point(const Calibration& cal, const process::Package& package,
                       int n_drivers, double input_rise_time, bool include_c,
                       std::string label);

}  // namespace ssnkit::analysis
