#include "sim/engine.hpp"

#include "numeric/sparse.hpp"
#include "support/contracts.hpp"
#include "support/faultinject.hpp"
#include "verify/residual.hpp"
#include "verify/trust.hpp"
#include "waveform/source_spec.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

namespace ssnkit::sim {

using circuit::AcceptContext;
using circuit::AnalysisMode;
using circuit::Circuit;
using circuit::Element;
using circuit::IntegrationCoeffs;
using circuit::Integrator;
using circuit::StampContext;
using numeric::Vector;
using support::FaultKind;
using support::HomotopyStage;
using support::SolverDiagnostics;
using support::SolverError;
using support::SolverErrorKind;

namespace {

// Newton convergence: |dx| <= kNewtonReltol * |x| + abstol per unknown.
constexpr double kNewtonReltol = 1e-6;
constexpr double kNewtonAbstolV = 1e-9;   // volts (node unknowns)
constexpr double kNewtonAbstolI = 1e-12;  // amperes (branch unknowns)

// Smallest transient step as a fraction of the span.
constexpr double kMinStepFraction = 1e-12;
// LTE absolute tolerance; LTE runs on node voltages only.
constexpr double kLteAbstolV = 1e-6;

// Trust layer. The scaled residual ||Ax-b||inf/(||A||inf*||x||inf + ||b||inf)
// above kResidualTol triggers one step of iterative refinement (a
// backward-stable solve of a sane system sits near 1e-14); above
// kDegradeTol after refinement it fails the run with a typed
// kResidualDegraded (SSN-W071), and the recovery ladder's retry
// re-factorizes. A condition estimate above kCondLimit downgrades trust to
// degraded without failing the run: forward error ~ cond * eps can no
// longer support the paper's 3 % accuracy claim.
constexpr double kResidualTol = 1e-9;
constexpr double kDegradeTol = 1e-7;
constexpr double kCondLimit = 1e14;

/// Everything solve_newton needs across iterations and timesteps: the
/// fixed-pattern stamped Jacobian (the cached "stamp plan"), the reusable
/// RHS/update/residual vectors and the sparse factorization whose symbolic
/// analysis is reused via numeric-only refactorization. One workspace
/// serves one (circuit, analysis mode) pair; dc_operating_point and
/// run_transient each own one, so after the first assembly every Newton
/// iteration runs without heap allocation.
struct SolverWorkspace {
  explicit SolverWorkspace(std::size_t& rebuilds) : pattern_rebuilds(rebuilds) {}

  numeric::StampedMatrix a;   ///< stamped Jacobian, pattern cached
  Vector b;                   ///< RHS
  Vector x_new;               ///< Newton update target
  Vector scratch;             ///< residual work vector
  Vector scratch2;            ///< second scratch for iterative refinement
  numeric::SparseFactor lu;   ///< symbolic analysis reused across iterations
  /// Release-mode pattern drift repairs, counted into the caller's result.
  std::size_t& pattern_rebuilds;
  /// The last factor_jacobian call fell back to a re-pivoted full
  /// factorization because a reused pivot degraded — the near-singular
  /// regime where a solve deserves a refinement step.
  bool degraded_pivot_fallback = false;

  void ensure_sized(std::size_t n) {
    b.resize(n);
    x_new.resize(n);
    scratch.resize(n);
    scratch2.resize(n);
  }
};

/// Assemble the MNA system for one Newton iteration into the workspace.
/// The first call (or any call after a pattern reset) runs in discovery
/// mode and finalizes the sparsity pattern; later calls stamp values into
/// the cached pattern with zero allocation.
void assemble(Circuit& ckt, const StampContext& base, const Vector& x,
              SolverWorkspace& ws) {
  const std::size_t n = std::size_t(ckt.unknown_count());
  ws.ensure_sized(n);
  const bool discovery = !ws.a.has_pattern() || ws.a.size() != n;
  if (discovery)
    ws.a.begin_pattern(n);
  else
    ws.a.clear();
  ws.b.fill(0.0);

  StampContext ctx = base;
  ctx.x = &x;
  ctx.a = nullptr;
  ctx.sa = &ws.a;
  ctx.b = &ws.b;
  for (const auto& el : ckt.elements()) el->stamp(ctx);
  // Homotopy conductance from every node to ground. Stamped even when
  // gmin == 0 so the diagonal slots are part of the discovered pattern and
  // gmin stepping never changes the sparsity (no re-analysis mid-homotopy).
  for (int node = 1; node < ckt.node_count(); ++node)
    ws.a.add(std::size_t(node - 1), std::size_t(node - 1), ctx.gmin);
  if (discovery) {
    ws.a.finalize_pattern();
    return;
  }
  if (ws.a.missed() != 0) {
    // An element stamped a coordinate outside the cached pattern. Stamp
    // patterns are fixed per (circuit, mode), so this is a bug in an
    // element model; recover in release builds by rediscovering.
    assert(ws.a.missed() == 0 && "stamp pattern drifted from cached plan");
    ++ws.pattern_rebuilds;
    ws.a.reset_pattern();
    assemble(ckt, base, x, ws);
  }
}

/// KCL mismatch ||A*x - b||_inf of the linearized system assembled in the
/// workspace — the residual reported in diagnostics when a solve stalls.
double kcl_residual(SolverWorkspace& ws, const Vector& x) {
  ws.a.mul_into(x, ws.scratch);
  double worst = 0.0;
  for (std::size_t i = 0; i < ws.scratch.size(); ++i) {
    const double row = ws.scratch[i] - ws.b[i];
    if (std::isfinite(row)) worst = std::max(worst, std::fabs(row));
  }
  return worst;
}

struct NewtonOutcome {
  bool converged = false;
  std::size_t iterations = 0;
  bool singular = false;    ///< LU reported a singular system
  bool non_finite = false;  ///< NaN/Inf appeared in the Newton update
  bool injected = false;    ///< a fault-injection hook forced this failure
  double max_dv = 0.0;      ///< last iteration's largest voltage update
  double residual = 0.0;    ///< ||A*x - b||_inf at the failure point
  int worst_node = -1;      ///< node (NodeId) with the largest update
};

/// Factor the workspace Jacobian: numeric-only refactorization when the
/// symbolic analysis is still valid for this pattern epoch, full
/// factorization (which redoes the analysis and re-pivots) otherwise or
/// when a reused pivot degraded. Returns false on a singular system.
bool factor_jacobian(SolverWorkspace& ws) {
  ws.degraded_pivot_fallback = false;
  if (ws.lu.pattern_epoch() == ws.a.epoch() && !ws.lu.singular()) {
    if (ws.lu.refactorize(ws.a)) return true;
    // A reused pivot degraded badly against its column: the values drifted
    // toward singularity since the pivot order was chosen. Remember it so
    // the next solve gets an iterative-refinement step — re-pivoting
    // restores stability but the system itself is near-singular, where
    // even a fresh LU loses digits.
    ws.degraded_pivot_fallback = true;
  }
  return ws.lu.factorize(ws.a);
}

/// Newton–Raphson on the MNA equations; x holds the initial guess on entry
/// and the solution on (successful) exit.
NewtonOutcome solve_newton(Circuit& ckt, const StampContext& base, Vector& x,
                           const NewtonOptions& opts, SolverWorkspace& ws) {
  const int n_nodes = ckt.node_count();
  const std::size_t n = std::size_t(ckt.unknown_count());
  NewtonOutcome out;

  for (int it = 0; it < opts.max_iterations; ++it) {
    ++out.iterations;
    assemble(ckt, base, x, ws);
    if (SSN_FAULT_POINT(FaultKind::kNewtonDivergence)) {
      out.injected = true;
      out.residual = kcl_residual(ws, x);
      return out;
    }
    const bool forced_singular = SSN_FAULT_POINT(FaultKind::kSingularLu);
    if (!factor_jacobian(ws) || forced_singular) {
      out.singular = true;
      out.injected = forced_singular;
      out.residual = kcl_residual(ws, x);
      return out;
    }
    ws.lu.solve(ws.b, ws.x_new);
    if (ws.degraded_pivot_fallback)
      ws.lu.refine(ws.a, ws.b, ws.x_new, ws.scratch, ws.scratch2);
    Vector& x_new = ws.x_new;
    const bool forced_nan = SSN_FAULT_POINT(FaultKind::kNanResidual);
    if (forced_nan && n > 0) x_new[0] = std::nan("");
    if (!ssnkit::detail::contract_all_finite(x_new)) {
      // A device model returning NaN conductances (or an injected fault)
      // corrupted the update: report it as a typed failure instead of
      // letting the NaN masquerade as a converged point downstream.
      out.non_finite = true;
      out.injected = forced_nan;
      out.residual = kcl_residual(ws, x);
      return out;
    }

    // Damping: limit the largest voltage move per iteration so the device
    // exponentials/power laws are never evaluated absurdly far out. Past
    // half the iteration budget, also halve every step — this breaks the
    // 2-cycles piecewise-linear devices can otherwise drive Newton into.
    double max_dv = 0.0;
    int worst = -1;
    for (int node = 1; node < n_nodes; ++node) {
      const double dv =
          std::fabs(x_new[std::size_t(node - 1)] - x[std::size_t(node - 1)]);
      if (dv > max_dv) {
        max_dv = dv;
        worst = node;
      }
    }
    out.max_dv = max_dv;
    out.worst_node = worst;
    double alpha = 1.0;
    if (max_dv > opts.max_voltage_step) alpha = opts.max_voltage_step / max_dv;
    if (it > opts.max_iterations / 2) alpha *= 0.5;
    if (alpha < 1.0)
      for (std::size_t i = 0; i < n; ++i)
        x_new[i] = x[i] + alpha * (x_new[i] - x[i]);

    bool converged = max_dv <= opts.max_voltage_step;  // full step taken
    if (converged) {
      for (std::size_t i = 0; i < n; ++i) {
        const bool is_voltage = i < std::size_t(n_nodes - 1);
        const double abstol = is_voltage ? kNewtonAbstolV : kNewtonAbstolI;
        const double tol =
            kNewtonReltol * std::max(std::fabs(x_new[i]), std::fabs(x[i])) + abstol;
        if (std::fabs(x_new[i] - x[i]) > tol) {
          converged = false;
          break;
        }
      }
    }
    // Swap rather than move: x gets the new iterate and the workspace keeps
    // the old buffer for the next solve (no per-iteration reallocation).
    std::swap(x, ws.x_new);
    if (converged) {
      // Convergence contract: the LU solves keep each iterate finite, but a
      // device model returning NaN conductances can still corrupt the final
      // state between solves — never report a non-finite solution as
      // converged.
      SSN_ASSERT_FINITE(x);
      out.converged = true;
      return out;
    }
  }
  // Out of iterations: reassemble at the final iterate so the diagnostic
  // carries the true KCL mismatch the iteration stalled at.
  assemble(ckt, base, x, ws);
  out.residual = kcl_residual(ws, x);
  return out;
}

/// The gmin ramp of DC gmin stepping and of the transient rescue: Newton on
/// the same iterate x at gmin = `first`, ×1e-2 per stage down to 1e-12, then
/// one plain solve. `stage(gmin, outcome)` sees every solve in order (gmin 0
/// for the plain one). True when every solve converged; x then holds the
/// solution.
template <typename Stage>
bool gmin_ramp(Circuit& ckt, const StampContext& base, Vector& x, double first,
               const NewtonOptions& newton, SolverWorkspace& ws,
               const Stage& stage) {
  for (double gmin = first; gmin >= 1e-12; gmin *= 1e-2) {
    StampContext ctx = base;
    ctx.gmin = gmin;
    const NewtonOutcome r = solve_newton(ckt, ctx, x, newton, ws);
    stage(gmin, r);
    if (!r.converged) return false;
  }
  const NewtonOutcome r = solve_newton(ckt, base, x, newton, ws);
  stage(0.0, r);
  return r.converged;
}

/// Classify a failed Newton outcome for the SolverError taxonomy.
SolverErrorKind classify(const NewtonOutcome& nr) {
  if (nr.singular) return SolverErrorKind::kSingularMatrix;
  if (nr.non_finite) return SolverErrorKind::kNonFiniteValue;
  return SolverErrorKind::kNewtonDivergence;
}

/// Fill the location/residual diagnostics shared by every failure path.
void fill_newton_diag(SolverDiagnostics& diag, const Circuit& ckt,
                      const NewtonOutcome& nr) {
  diag.residual = nr.residual;
  diag.max_dv = nr.max_dv;
  diag.injected = nr.injected;
  if (nr.worst_node > 0) {
    diag.node = nr.worst_node;
    diag.node_name = ckt.node_name(nr.worst_node);
  }
}

/// Gear-2 (BDF2) coefficients for possibly unequal steps h1 = t_{n+1}-t_n,
/// h2 = t_n - t_{n-1}:  dx/dt ~= a0*x_{n+1} + a1*x_n + a2*x_{n-1}.
IntegrationCoeffs make_coeffs(Integrator method, double h1, double h2) {
  IntegrationCoeffs c;
  c.method = method;
  c.h = h1;
  switch (method) {
    case Integrator::kBackwardEuler:
      c.a0 = 1.0 / h1;
      c.a1 = -1.0 / h1;
      break;
    case Integrator::kTrapezoidal:
      c.a0 = 2.0 / h1;  // elements use the trap form with stored derivative
      c.a1 = -2.0 / h1;
      break;
    case Integrator::kGear2: {
      if (h2 > 0.0) {
        const double r = h1 / h2;
        c.a0 = (1.0 + 2.0 * r) / (h1 * (1.0 + r));
        c.a1 = -(1.0 + r) / h1 * 1.0;  // -(1+r)/h1
        c.a2 = r * r / (h1 * (1.0 + r));
      } else {  // no history yet: BE
        c.a0 = 1.0 / h1;
        c.a1 = -1.0 / h1;
      }
      break;
    }
  }
  return c;
}

std::vector<std::string> collect_signal_names(const Circuit& ckt) {
  std::vector<std::string> names;
  for (int n = 1; n < ckt.node_count(); ++n) names.push_back(ckt.node_name(n));
  for (const auto& el : ckt.elements())
    for (int k = 0; k < el->branch_count(); ++k)
      names.push_back(k == 0 ? "I(" + el->name() + ")"
                             : "I(" + el->name() + "#" + std::to_string(k + 1) +
                                   ")");
  return names;
}

/// Write the recorded-signal row for state x into `row` (reuses capacity).
void snapshot_into(const Circuit& ckt, const Vector& x,
                   std::vector<double>& row) {
  row.clear();
  for (int n = 1; n < ckt.node_count(); ++n) row.push_back(x[std::size_t(n - 1)]);
  for (const auto& el : ckt.elements())
    for (int k = 0; k < el->branch_count(); ++k)
      row.push_back(x[std::size_t(ckt.branch_unknown_index(*el) + k)]);
}

/// Ring of the last <= 4 accepted points for the predictor and the LTE
/// divided differences. Rotation swaps Vector buffers instead of erasing
/// from the front, so steady-state pushes never reallocate.
struct StepHistory {
  std::array<double, 4> t{};
  std::array<Vector, 4> x{};
  std::size_t count = 0;

  void reset(double t0, const Vector& x0) {
    t[0] = t0;
    x[0] = x0;  // copy-assign at equal size reuses the buffer
    count = 1;
  }
  void push(double tt, const Vector& xx) {
    if (count < 4) {
      t[count] = tt;
      x[count] = xx;
      ++count;
      return;
    }
    std::swap(x[0], x[1]);
    std::swap(x[1], x[2]);
    std::swap(x[2], x[3]);
    t[0] = t[1];
    t[1] = t[2];
    t[2] = t[3];
    t[3] = tt;
    x[3] = xx;
  }
};

std::vector<double> collect_breakpoints(const Circuit& ckt, double t0, double t1) {
  std::vector<double> bps;
  for (const auto& el : ckt.elements()) {
    const waveform::SourceSpec* spec = nullptr;
    if (const auto* v = dynamic_cast<const circuit::VoltageSource*>(el.get()))
      spec = &v->spec();
    else if (const auto* i = dynamic_cast<const circuit::CurrentSource*>(el.get()))
      spec = &i->spec();
    if (!spec) continue;
    for (double t : waveform::source_breakpoints(*spec, t0, t1)) bps.push_back(t);
  }
  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end(),
                        [](double a, double b) { return std::fabs(a - b) < 1e-18; }),
            bps.end());
  return bps;
}

std::string format_scale(const char* prefix, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%.0e", prefix, value);
  return std::string(buf);
}

}  // namespace

double DcResult::voltage(const Circuit& ckt, const std::string& node) const {
  const circuit::NodeId id = ckt.find_node(node);
  return id == circuit::kGround ? 0.0 : solution[std::size_t(id - 1)];
}

DcResult dc_operating_point(Circuit& ckt, double time, const NewtonOptions& newton) {
  ckt.finalize();
  const std::size_t n = std::size_t(ckt.unknown_count());
  DcResult out;
  out.solution = Vector(n);

  StampContext base;
  base.mode = AnalysisMode::kDc;
  base.time = time;

  // One workspace for every homotopy stage: gmin and source_scale only
  // change stamped values, never the sparsity pattern, so the symbolic
  // analysis from the first factorization carries through the whole ladder.
  SolverWorkspace ws(out.pattern_rebuilds);

  // Failure bookkeeping: the trail records every stage; the last failed
  // outcome classifies the error and locates the stall.
  NewtonOutcome last_fail;
  bool any_injected = false;
  const auto record = [&](std::string name, const NewtonOutcome& r) {
    HomotopyStage st;
    st.name = std::move(name);
    st.converged = r.converged;
    st.iterations = r.iterations;
    st.residual = r.residual;
    st.max_dv = r.max_dv;
    out.homotopy_trail.push_back(std::move(st));
    if (!r.converged) last_fail = r;
    if (r.injected) any_injected = true;
  };

  // 1. Plain Newton from zero.
  {
    Vector x(n);
    const auto r = solve_newton(ckt, base, x, newton, ws);
    out.iterations += r.iterations;
    record("plain-newton", r);
    if (r.converged) {
      out.solution = std::move(x);
      SSN_ASSERT_FINITE(out.solution);
      return out;
    }
  }
  // 2. gmin stepping.
  {
    out.used_gmin_stepping = true;
    Vector x(n);
    const auto stage = [&](double gmin, const NewtonOutcome& r) {
      out.iterations += r.iterations;
      record(gmin > 0.0 ? format_scale("gmin=", gmin) : "gmin-final", r);
    };
    if (gmin_ramp(ckt, base, x, 1e-2, newton, ws, stage)) {
      out.solution = std::move(x);
      SSN_ASSERT_FINITE(out.solution);
      return out;
    }
  }
  // 3. Source stepping.
  {
    out.used_source_stepping = true;
    Vector x(n);
    bool ok = true;
    for (double scale = 0.1; scale <= 1.0001; scale += 0.1) {
      StampContext ctx = base;
      ctx.source_scale = std::min(scale, 1.0);
      const auto r = solve_newton(ckt, ctx, x, newton, ws);
      out.iterations += r.iterations;
      record(format_scale("source=", std::min(scale, 1.0)), r);
      if (!r.converged) {
        ok = false;
        break;
      }
    }
    if (ok) {
      out.solution = std::move(x);
      SSN_ASSERT_FINITE(out.solution);
      return out;
    }
  }

  SolverDiagnostics diag;
  diag.where = "dc_operating_point";
  diag.time = time;
  diag.newton_iterations = out.iterations;
  fill_newton_diag(diag, ckt, last_fail);
  diag.injected = any_injected || last_fail.injected;
  diag.homotopy_trail = out.homotopy_trail;
  throw SolverError(
      classify(last_fail),
      "no convergence (plain, gmin and source stepping all failed)", diag);
}

TransientRun run_transient_ex(Circuit& ckt, const TransientOptions& opts) {
  SSN_REQUIRE(opts.t_stop > opts.t_start,
              "run_transient_ex: t_stop must be > t_start");
  ckt.finalize();
  const std::size_t n = std::size_t(ckt.unknown_count());
  const int n_nodes = ckt.node_count();
  const double span = opts.t_stop - opts.t_start;

  const double h_max = opts.dt_max > 0.0 ? opts.dt_max : span / 50.0;
  const double h_min = span * kMinStepFraction;
  double h = opts.dt_initial > 0.0 ? opts.dt_initial : span / 1000.0;
  h = std::clamp(h, h_min, h_max);

  TransientRun run{TransientResult(collect_signal_names(ckt)), std::nullopt};
  TransientResult& result = run.result;
  // The verdict starts at verified and can only be downgraded: any failed
  // check, refinement or solver error worsens it on the way through.
  if (opts.verify.enabled)
    result.trust.verdict = verify::Verdict::kVerified;

  // Transient workspace: pattern discovery + symbolic analysis happen at the
  // first Newton iteration of the first step; every later iteration stamps
  // into the cached pattern and refactorizes numerically.
  SolverWorkspace ws(result.stats.pattern_rebuilds);

  // Preallocate the result columns and the snapshot row so steady-state
  // stepping appends without reallocation. The estimate is the fixed-step
  // point count; adaptive runs that take more points just grow amortized.
  std::vector<double> snap_row;
  snap_row.reserve(n);
  {
    const double est = span / h + 8.0;
    const double cap = double(opts.max_steps) + 8.0;
    result.reserve(std::size_t(std::min(std::min(est, cap), 4.0e6)));
  }

  // Initial state: DC operating point or UIC.
  Vector x(n);
  if (opts.use_ic) {
    // Node voltages start at 0; elements pick up their declared ICs.
  } else {
    try {
      DcResult dc = dc_operating_point(ckt, opts.t_start, opts.newton);
      result.stats.dc_iterations = dc.iterations;
      result.stats.dc_used_gmin_stepping = dc.used_gmin_stepping;
      result.stats.dc_used_source_stepping = dc.used_source_stepping;
      result.stats.pattern_rebuilds += dc.pattern_rebuilds;
      x = std::move(dc.solution);
    } catch (const SolverError& e) {
      SolverDiagnostics diag = e.diagnostics();
      diag.where = "run_transient (initial operating point)";
      run.error.emplace(e.kind(), "initial operating point failed",
                        std::move(diag));
      return run;
    }
  }
  {
    AcceptContext actx;
    actx.x = &x;
    actx.node_count = n_nodes;
    for (const auto& el : ckt.elements()) el->init_state(actx);
    // Always start the integration with a backward-Euler step: a source may
    // have a derivative discontinuity at t_start (e.g. a ramp beginning at
    // 0), and trapezoidal derivative history from the DC point would then
    // ring without damping.
    for (const auto& el : ckt.elements()) el->reset_derivative_history();
  }

  double t = opts.t_start;
  snapshot_into(ckt, x, snap_row);
  result.append(t, snap_row);

  const std::vector<double> breakpoints =
      collect_breakpoints(ckt, opts.t_start, opts.t_stop);

  // Accepted history for predictor + LTE divided differences.
  StepHistory hist;
  hist.reset(t, x);

  // Persistent per-step vectors: copy-assignment at constant size reuses
  // their buffers, and accepting a step swaps x_cand with x.
  Vector x_guess(n);
  Vector x_cand(n);

  StampContext base;
  base.mode = AnalysisMode::kTransient;

  const auto fail = [&](SolverErrorKind kind, const std::string& message,
                        SolverDiagnostics diag) {
    diag.where = "run_transient";
    diag.newton_iterations = result.stats.newton_iterations;
    // A failed run's waveform is a partial prefix, not the requested
    // result: whatever per-step checks passed, the whole is not verified.
    result.trust.downgrade(verify::Verdict::kDegraded);
    run.error.emplace(kind, message, std::move(diag));
  };

  const double t_eps = span * 1e-12;
  while (t < opts.t_stop - t_eps) {
    // Cooperative lifecycle poll: a cancelled token or an expired deadline
    // winds the run down here, at an accepted-step boundary, so the partial
    // waveform in `result` is always a consistent high-fidelity prefix.
    if (opts.run_ctx != nullptr) {
      const support::StopReason stop = opts.run_ctx->stop_requested();
      if (stop != support::StopReason::kNone) {
        SolverDiagnostics diag;
        diag.time = t;
        const bool cancelled = stop == support::StopReason::kCancelled;
        fail(cancelled ? SolverErrorKind::kCancelled
                       : SolverErrorKind::kDeadlineExpired,
             cancelled ? "run cancelled" : "deadline expired",
             std::move(diag));
        return run;
      }
    }
    // Never step across a source breakpoint.
    double h_step = std::min({h, h_max, opts.t_stop - t});
    for (double bp : breakpoints) {
      if (bp > t + t_eps) {
        h_step = std::min(h_step, bp - t);
        break;
      }
    }
    const bool forced_underflow = SSN_FAULT_POINT(FaultKind::kStepUnderflow);
    if (h_step < h_min || forced_underflow) {
      SolverDiagnostics diag;
      diag.time = t;
      diag.injected = forced_underflow && h_step >= h_min;
      fail(SolverErrorKind::kStepUnderflow, "time step underflow",
           std::move(diag));
      return run;
    }

    const double h_prev =
        hist.count >= 2 ? hist.t[hist.count - 1] - hist.t[hist.count - 2] : 0.0;
    base.time = t + h_step;
    base.coeffs = make_coeffs(opts.method, h_step, h_prev);

    // Predictor: linear extrapolation of the last two accepted points.
    x_guess = x;
    if (hist.count >= 2 && h_prev > 0.0) {
      const Vector& x1 = hist.x[hist.count - 1];
      const Vector& x0 = hist.x[hist.count - 2];
      const double r = h_step / h_prev;
      for (std::size_t i = 0; i < n; ++i)
        x_guess[i] = x1[i] + r * (x1[i] - x0[i]);
    }

    x_cand = x_guess;
    const auto nr = solve_newton(ckt, base, x_cand, opts.newton, ws);
    result.stats.newton_iterations += nr.iterations;
    if (nr.non_finite) ++result.stats.nonfinite_rejections;
    if (!nr.converged) {
      ++result.stats.newton_failures;
      const double h_next = h_step * 0.25;
      if (h_next >= h_min) {
        h = h_next;
        continue;
      }
      // The step cannot shrink further. Optionally rescue the timepoint
      // with a gmin ramp (the transient analogue of DC gmin stepping)
      // before surfacing the failure.
      bool rescued = false;
      if (opts.newton_gmin_recovery) {
        Vector xg = x;
        rescued = gmin_ramp(ckt, base, xg, 1e-3, opts.newton, ws,
                            [&](double, const NewtonOutcome& r) {
                              result.stats.newton_iterations += r.iterations;
                            });
        if (rescued) {
          x_cand = std::move(xg);
          ++result.stats.gmin_rescues;
        }
      }
      if (!rescued) {
        SolverDiagnostics diag;
        diag.time = base.time;
        fill_newton_diag(diag, ckt, nr);
        fail(classify(nr), "Newton failed at minimum step", std::move(diag));
        return run;
      }
    }

    // LTE control via divided differences over the last accepted points.
    // Only node voltages participate: branch currents through very large
    // resistances are rounding-noise-dominated, and noise divided by h^3
    // would drive the controller to absurdly small steps.
    double err = 0.0;
    const bool can_lte = opts.adaptive && hist.count >= 3;
    if (can_lte) {
      const std::size_t m = hist.count;
      const double t3 = base.time, t2 = hist.t[m - 1], t1 = hist.t[m - 2],
                   t0 = hist.t[m - 3];
      for (std::size_t i = 0; i < std::size_t(n_nodes - 1); ++i) {
        const double f3 = x_cand[i], f2 = hist.x[m - 1][i], f1 = hist.x[m - 2][i],
                     f0 = hist.x[m - 3][i];
        double lte;
        if (opts.method == Integrator::kBackwardEuler) {
          // LTE ~ h^2/2 * x''; x''/2 ~ f[t3,t2,t1]
          const double dd2 =
              ((f3 - f2) / (t3 - t2) - (f2 - f1) / (t2 - t1)) / (t3 - t1);
          lte = h_step * h_step * std::fabs(dd2);
        } else {
          // LTE ~ c*h^3 * x'''; x'''/6 ~ f[t3,t2,t1,t0]
          const double dd2a =
              ((f3 - f2) / (t3 - t2) - (f2 - f1) / (t2 - t1)) / (t3 - t1);
          const double dd2b =
              ((f2 - f1) / (t2 - t1) - (f1 - f0) / (t1 - t0)) / (t2 - t0);
          const double dd3 = (dd2a - dd2b) / (t3 - t0);
          lte = 0.5 * h_step * h_step * h_step * std::fabs(dd3) * 6.0;
        }
        const double scale =
            kLteAbstolV + opts.lte_reltol * std::fabs(x_cand[i]);
        err = std::max(err, lte / scale);
      }
      if (err > 1.0 && h_step > 4.0 * h_min) {
        ++result.stats.rejected_steps;
        const double shrink =
            std::clamp(0.9 * std::pow(std::max(err, 1e-12), -1.0 / 3.0), 0.1, 0.5);
        h = h_step * shrink;
        continue;
      }
    }

    // Accept.
    if (result.stats.accepted_steps >= opts.max_steps) {
      SolverDiagnostics diag;
      diag.time = t;
      fail(SolverErrorKind::kStepBudgetExhausted, "step budget exhausted",
           std::move(diag));
      return run;
    }

    // Trust layer: verify the accepted point's linear solve against the
    // still-stamped system (one CSR sweep over ws.a/ws.b, no allocation).
    // A clean solve sits near machine epsilon; a corrupted or stale
    // factorization lands orders of magnitude higher, gets one shot at
    // iterative refinement, and otherwise fails typed — never silent.
    if (opts.verify.enabled) {
      double res = verify::scaled_residual(ws.a, x_cand, ws.b);
      ++result.stats.residual_checks;
      if (!(res <= kResidualTol)) {
        ws.lu.refine(ws.a, ws.b, x_cand, ws.scratch, ws.scratch2);
        ++result.stats.residual_refinements;
        ++result.trust.refinements;
        const double before = res;
        res = verify::scaled_residual(ws.a, x_cand, ws.b);
        if (!(res <= kDegradeTol)) {
          result.trust.downgrade(verify::Verdict::kDegraded);
          result.trust.note(format_scale(
              "SSN-W071: scaled solve residual stayed at ", res));
          result.stats.worst_scaled_residual =
              std::max(result.stats.worst_scaled_residual, res);
          result.trust.residual = result.stats.worst_scaled_residual;
          SolverDiagnostics diag;
          diag.time = base.time;
          diag.residual = res;
          fail(SolverErrorKind::kResidualDegraded,
               "scaled solve residual " + format_scale("", before) +
                   " stayed at " + format_scale("", res) +
                   " after refinement",
               std::move(diag));
          return run;
        }
        result.trust.downgrade(verify::Verdict::kRefined);
        result.trust.note(
            format_scale("SSN-W070: solve residual ", before) +
            format_scale(" recovered to ", res) + " by refinement");
      }
      result.stats.worst_scaled_residual =
          std::max(result.stats.worst_scaled_residual, res);
    }

    t = base.time;
    std::swap(x, x_cand);  // keep x_cand's buffer alive for the next step
    {
      AcceptContext actx;
      actx.x = &x;
      actx.coeffs = base.coeffs;
      actx.node_count = n_nodes;
      for (const auto& el : ckt.elements()) el->accept_step(actx);
    }
    ++result.stats.accepted_steps;
    snapshot_into(ckt, x, snap_row);
    result.append(t, snap_row);
    hist.push(t, x);

    // Landed on a breakpoint: restart the integrator history (the source
    // derivative is discontinuous there).
    for (double bp : breakpoints) {
      if (std::fabs(bp - t) <= t_eps) {
        for (const auto& el : ckt.elements()) el->reset_derivative_history();
        hist.reset(t, x);
        break;
      }
    }

    // Step-size update.
    if (opts.adaptive) {
      double grow = 1.5;
      if (can_lte && err > 1e-12)
        grow = std::clamp(0.9 * std::pow(err, -1.0 / 3.0), 0.5, 2.0);
      h = std::clamp(h_step * grow, h_min, h_max);
    } else {
      // Fixed-step mode: return to the nominal step (a breakpoint may have
      // truncated this one).
      h = opts.dt_initial > 0.0 ? opts.dt_initial : span / 1000.0;
    }
  }

  const bool final_factor = ws.a.has_pattern() && !ws.lu.singular() &&
                            ws.lu.pattern_epoch() == ws.a.epoch();
  if (final_factor) {
    result.stats.matrix_nonzeros = ws.a.nonzeros();
    result.stats.factor_nonzeros = ws.lu.factor_nonzeros();
  }
  // Once per run (never per step): the Hager 1-norm condition estimate of
  // the final factorized system. A quietly ill-conditioned package matrix
  // can pass every residual check yet carry a forward error far beyond the
  // paper's 3 % bar — that is a trust downgrade, not a solver failure.
  if (opts.verify.enabled) {
    if (final_factor) {
      const double cond = verify::condest_1norm(ws.a, ws.lu);
      result.stats.condition_estimate = cond;
      result.trust.cond_estimate = cond;
      if (!(cond <= kCondLimit)) {
        result.trust.downgrade(verify::Verdict::kDegraded);
        result.trust.note(
            format_scale("SSN-W071: condition estimate ", cond) +
            format_scale(" exceeds the trust limit ", kCondLimit));
      }
    }
    if (result.stats.residual_checks > 0)
      result.trust.residual = result.stats.worst_scaled_residual;
  }
  return run;
}

}  // namespace ssnkit::sim
