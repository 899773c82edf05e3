// The nonlinear solvers: DC operating point (Newton with gmin- and
// source-stepping homotopies) and the transient engine (companion-model
// integration with trapezoidal / BE / Gear-2, Newton at every time point,
// LTE-based adaptive step control and breakpoint handling).
//
// This engine is the repository's stand-in for the paper's HSPICE runs;
// tests/test_sim_*.cpp validate it against closed-form RLC responses and
// RK45 reference integrations before it is trusted as a golden reference.
//
// Hot path: the Jacobian is stamped directly into a fixed-pattern sparse
// workspace (the pattern is discovered once per circuit/analysis mode) and
// factored with a symbolic-analysis-reusing sparse LU, so Newton iterations
// and timesteps run without per-iteration heap allocation. See
// docs/PERFORMANCE.md.
//
// Failure reporting: every solver failure surfaces as a typed
// support::SolverError (see support/diagnostics.hpp) carrying the failure
// kind, location and the homotopy/recovery trail. run_transient_ex() never
// throws on solver failure: it returns the error beside the partial
// waveform computed before it. Callers check ok() before reading the
// result; sim/recovery.hpp wraps it in the recovery ladder.
#pragma once

#include "circuit/circuit.hpp"
#include "sim/result.hpp"
#include "support/diagnostics.hpp"
#include "support/runcontext.hpp"

#include <optional>

namespace ssnkit::sim {

struct NewtonOptions {
  int max_iterations = 100;
  double max_voltage_step = 2.0;  ///< per-iteration damping limit [V]
};

/// Solve-verification policy (the src/verify trust layer). The scaled
/// residual ||Ax-b||inf/(||A||inf*||x||inf + ||b||inf) of the converged
/// linear system is checked once per *accepted* step — one extra CSR sweep
/// reusing the already-stamped matrix, no allocation — and the Hager
/// 1-norm condition estimate runs once per run, so the hot-path overhead
/// stays within the bench_perf 5 % budget. A residual that stays high after
/// one refinement step fails the run with a typed
/// SolverErrorKind::kResidualDegraded (SSN-W071); a high condition estimate
/// downgrades trust without failing it.
struct VerifyOptions {
  bool enabled = true;
};

struct DcResult {
  numeric::Vector solution;
  std::size_t iterations = 0;
  bool used_gmin_stepping = false;
  bool used_source_stepping = false;
  std::size_t pattern_rebuilds = 0;  ///< see SolverStats::pattern_rebuilds
  /// Every homotopy stage that ran (plain Newton, each gmin value, each
  /// source scale) with its convergence status and final residual.
  std::vector<support::HomotopyStage> homotopy_trail;

  /// Voltage of a named node in this solution.
  double voltage(const circuit::Circuit& ckt, const std::string& node) const;
};

/// Solve the DC operating point (capacitors open, inductors shorted,
/// sources evaluated at `time`). Throws support::SolverError (a
/// std::runtime_error) carrying the homotopy trail when all homotopies fail.
DcResult dc_operating_point(circuit::Circuit& ckt, double time = 0.0,
                            const NewtonOptions& newton = {});

struct TransientOptions {
  double t_start = 0.0;
  double t_stop = 1e-9;
  circuit::Integrator method = circuit::Integrator::kTrapezoidal;
  double dt_initial = 0.0;  ///< 0 = auto (span/1000)
  double dt_max = 0.0;      ///< 0 = auto (span/50); the minimum is span*1e-12
  bool adaptive = true;     ///< LTE step control
  double lte_reltol = 1e-4;  ///< LTE runs on node voltages only
  /// Hard cap on accepted steps: converts pathological step-size grinding
  /// into an error instead of an unbounded run.
  std::size_t max_steps = 5'000'000;
  /// Skip the DC solve and start from element initial conditions
  /// (SPICE "UIC"); unknown node voltages start at 0.
  bool use_ic = false;
  /// Last-ditch per-timepoint rescue: when Newton still fails at the
  /// minimum step, retry the point with a gmin ramp (1e-3 -> 0) before
  /// giving up. Off by default; the recovery ladder enables it on its gmin
  /// rung.
  bool newton_gmin_recovery = false;
  /// Optional job lifecycle context. When set, the accepted-step loop polls
  /// it and winds down with a typed kCancelled / kDeadlineExpired error —
  /// the partial waveform up to the stop is preserved, exactly like any
  /// other solver failure surfaced through run_transient_ex. Not owned.
  const support::RunContext* run_ctx = nullptr;
  NewtonOptions newton;
  /// Trust-layer checks (on by default; see VerifyOptions).
  VerifyOptions verify;
};

/// Outcome of a transient run that never throws on solver failure: the
/// result holds every accepted point up to the failure (the high-fidelity
/// prefix), and `error` is engaged with the typed diagnostic.
struct TransientRun {
  TransientResult result;
  std::optional<support::SolverError> error;
  bool ok() const { return !error.has_value(); }
};

/// Run a transient analysis. Records every node voltage plus the branch
/// current of every voltage-defined element as "I(name)". Never throws on
/// solver failure: the partial waveform computed before the failure is
/// preserved in `result` and `error` carries the typed diagnostic. Throws
/// std::invalid_argument only for t_stop <= t_start.
TransientRun run_transient_ex(circuit::Circuit& ckt,
                              const TransientOptions& opts);

}  // namespace ssnkit::sim
