// Simulation results: named signals over time. Node voltages are recorded
// under their node names ("vssi"), branch currents as "I(element)".
#pragma once

#include "verify/trust.hpp"
#include "waveform/waveform.hpp"

#include <map>
#include <string>
#include <vector>

namespace ssnkit::sim {

struct SolverStats {
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;     ///< LTE rejections
  std::size_t newton_failures = 0;    ///< step retries due to non-convergence
  std::size_t newton_iterations = 0;  ///< total across all steps
  std::size_t nonfinite_rejections = 0;  ///< Newton updates rejected for NaN/Inf
  std::size_t gmin_rescues = 0;       ///< timepoints saved by the gmin ramp
  std::size_t dc_iterations = 0;
  bool dc_used_gmin_stepping = false;
  bool dc_used_source_stepping = false;
  // Trust-layer bookkeeping (src/verify): the per-accepted-step scaled
  // residual checks and the once-per-run Hager condition estimate.
  std::size_t residual_checks = 0;       ///< accepted steps verified
  std::size_t residual_refinements = 0;  ///< iterative-refinement rescues
  double worst_scaled_residual = 0.0;    ///< max over accepted steps
  double condition_estimate = 0.0;       ///< Hager estimate; 0 = not run
  // The run's final transient factorization; factor / matrix is the fill.
  std::size_t matrix_nonzeros = 0;  ///< stored Jacobian entries
  std::size_t factor_nonzeros = 0;  ///< stored L + U entries
  /// Stamp patterns rediscovered because an element stamped outside the
  /// cached one (DC and transient). Patterns are fixed per (circuit, mode),
  /// so anything but 0 names an element-model bug that release builds
  /// repaired; debug builds assert instead.
  std::size_t pattern_rebuilds = 0;
};

class TransientResult {
 public:
  /// An empty result with no signals (placeholder for failed runs).
  TransientResult() = default;
  TransientResult(std::vector<std::string> signal_names);

  /// Append one accepted time point; values must match the signal count.
  void append(double t, const std::vector<double>& values);

  /// Preallocate storage for roughly `points` time points so the transient
  /// hot loop appends without per-step reallocation.
  void reserve(std::size_t points);

  const std::vector<std::string>& signal_names() const { return names_; }
  bool has_signal(const std::string& name) const;

  std::size_t point_count() const { return times_.size(); }
  const std::vector<double>& times() const { return times_; }

  /// Extract one signal as a waveform; throws std::out_of_range when the
  /// name is unknown.
  waveform::Waveform waveform(const std::string& name) const;

  /// Value of a signal at the final time point.
  double final_value(const std::string& name) const;

  SolverStats stats;

  /// How this result was verified (src/verify): the engine fills the
  /// verdict, worst residual and condition estimate; analysis layers merge
  /// their physics-invariant findings on top.
  verify::TrustReport trust;

 private:
  std::size_t index_of(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> columns_;  // one per signal
};

}  // namespace ssnkit::sim
