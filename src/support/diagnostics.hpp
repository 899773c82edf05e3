// Structured solver diagnostics: a typed SolverError that replaces the
// ad-hoc std::runtime_error throws in the solver kernels (sim/engine.cpp,
// numeric/lu.cpp, numeric/sparse.cpp, ...).
//
// A bare runtime_error tells a batch driver nothing: it cannot distinguish
// "this sample's Newton iteration wandered off and a retry with tighter
// damping would succeed" from "the circuit is structurally singular and no
// amount of retrying will help". SolverError carries
//
//   - a SolverErrorKind (with a retryability classification),
//   - the failure location (simulation time, offending node),
//   - the last Newton residual / update norm,
//   - the DC homotopy trail (which stepping strategies ran, how far each
//     got, and the residual it stalled at), and
//   - the recovery rungs the ladder already attempted.
//
// SolverError derives from std::runtime_error so every pre-existing
// `catch (const std::runtime_error&)` keeps working; new callers switch on
// kind() instead of parsing what().
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace ssnkit::support {

/// What class of failure the solver hit. The taxonomy matters more than the
/// message: the recovery ladder keys its escalation on it.
enum class SolverErrorKind {
  kNewtonDivergence,     ///< Newton iteration did not converge (transient)
  kSingularMatrix,       ///< LU/QR factorization found a singular system
  kNonFiniteValue,       ///< NaN/Inf residual or solution detected
  kStepUnderflow,        ///< adaptive timestep fell below the minimum step
  kStepBudgetExhausted,  ///< max_steps hit (pathological grinding)
  kHomotopyExhausted,    ///< every DC homotopy (plain/gmin/source) failed
  kCancelled,            ///< the job's RunContext was cancelled mid-solve
  kDeadlineExpired,      ///< the job's RunContext deadline passed mid-solve
  kResidualDegraded,     ///< solve residual stayed bad after refinement
};

inline const char* to_string(SolverErrorKind kind) {
  switch (kind) {
    case SolverErrorKind::kNewtonDivergence: return "newton-divergence";
    case SolverErrorKind::kSingularMatrix: return "singular-matrix";
    case SolverErrorKind::kNonFiniteValue: return "non-finite-value";
    case SolverErrorKind::kStepUnderflow: return "step-underflow";
    case SolverErrorKind::kStepBudgetExhausted: return "step-budget-exhausted";
    case SolverErrorKind::kHomotopyExhausted: return "homotopy-exhausted";
    case SolverErrorKind::kCancelled: return "cancelled";
    case SolverErrorKind::kDeadlineExpired: return "deadline-expired";
    case SolverErrorKind::kResidualDegraded: return "residual-degraded";
  }
  return "unknown";
}

/// Whether a recovery-ladder rung has a realistic chance of getting past
/// this failure. kStepBudgetExhausted is classified retryable because a
/// different integrator or dt_max often stops the grinding; a singular
/// matrix is retryable only through the gmin path, which the ladder knows.
inline bool is_retryable(SolverErrorKind kind) {
  switch (kind) {
    case SolverErrorKind::kNewtonDivergence:
    case SolverErrorKind::kNonFiniteValue:
    case SolverErrorKind::kStepUnderflow:
    case SolverErrorKind::kStepBudgetExhausted:
    case SolverErrorKind::kSingularMatrix:
    // A degraded residual is usually a corrupted or stale factorization; a
    // retry with a fresh full factorization (recovery rung 0 re-runs it)
    // clears a bit-flip, and a genuinely ill-conditioned system walks the
    // ladder down to the analytic rung instead of being served unchecked.
    case SolverErrorKind::kResidualDegraded:
      return true;
    case SolverErrorKind::kHomotopyExhausted:
    case SolverErrorKind::kCancelled:
    case SolverErrorKind::kDeadlineExpired:
      return false;
  }
  return false;
}

/// Whether this failure is a cooperative stop (the job was told to wind
/// down) rather than a numerical failure. Stop kinds must never be "fixed":
/// the recovery ladder does not climb past them (they are non-retryable)
/// and the analytic measurement fallback must not paper over them — a
/// cancelled sample is *not run*, not *degraded*.
inline bool is_stop_kind(SolverErrorKind kind) {
  return kind == SolverErrorKind::kCancelled ||
         kind == SolverErrorKind::kDeadlineExpired;
}

/// One leg of the DC homotopy (plain Newton, one gmin value, one source
/// scale): how far it got before converging or stalling.
struct HomotopyStage {
  std::string name;            ///< "plain-newton", "gmin=1e-04", "source=0.3"
  bool converged = false;
  std::size_t iterations = 0;  ///< Newton iterations this stage spent
  double residual = 0.0;       ///< final KCL residual ||A*x - b||_inf
  double max_dv = 0.0;         ///< last Newton update norm (stall indicator)
};

/// One rung of the recovery ladder and what happened on it.
struct RecoveryAttempt {
  std::string rung;      ///< "full-device", "tighten-damping", ...
  bool succeeded = false;
  std::string detail;    ///< error summary or step statistics
};

/// Everything known about a failure, attached to the SolverError. Kept as a
/// plain aggregate so solver internals can fill it incrementally.
struct SolverDiagnostics {
  std::string where;            ///< entry point: "dc_operating_point", ...
  double time = std::nan("");   ///< simulation time of failure; NaN = n/a
  int node = -1;                ///< offending node index; -1 = unknown
  std::string node_name;        ///< its name when resolvable
  std::size_t newton_iterations = 0;  ///< total Newton iterations spent
  double residual = std::nan("");     ///< final KCL residual ||A*x - b||_inf
  double max_dv = std::nan("");       ///< last Newton update norm
  bool injected = false;        ///< failure forced by a fault-injection hook
  std::vector<HomotopyStage> homotopy_trail;
  std::vector<RecoveryAttempt> recovery_trail;

  /// Render the full diagnostic block (used for what()).
  std::string format(SolverErrorKind kind, const std::string& message) const {
    std::string s = "SolverError[";
    s += to_string(kind);
    s += "] ";
    if (!where.empty()) {
      s += where;
      s += ": ";
    }
    s += message;
    if (std::isfinite(time)) s += " (t=" + std::to_string(time) + ")";
    if (node >= 0) {
      s += " [node " + std::to_string(node);
      if (!node_name.empty()) s += " '" + node_name + "'";
      s += "]";
    }
    if (newton_iterations > 0)
      s += "; newton iterations=" + std::to_string(newton_iterations);
    if (std::isfinite(residual)) s += ", residual=" + std::to_string(residual);
    if (std::isfinite(max_dv)) s += ", max_dv=" + std::to_string(max_dv);
    if (injected) s += " [fault-injected]";
    if (!homotopy_trail.empty()) {
      s += "; homotopy:";
      for (const HomotopyStage& st : homotopy_trail) {
        s += " ";
        s += st.name;
        s += st.converged ? "(ok" : "(stalled";
        s += ", it=" + std::to_string(st.iterations);
        s += ", res=" + std::to_string(st.residual) + ")";
      }
    }
    if (!recovery_trail.empty()) {
      s += "; recovery:";
      for (const RecoveryAttempt& a : recovery_trail) {
        s += " ";
        s += a.rung;
        s += a.succeeded ? "(ok)" : "(failed)";
      }
    }
    return s;
  }
};

/// The typed solver failure. Copyable (so a batch driver can store it per
/// sample) and cheap to rethrow.
class SolverError : public std::runtime_error {
 public:
  SolverError(SolverErrorKind kind, const std::string& message,
              SolverDiagnostics diagnostics = {})
      : std::runtime_error(diagnostics.format(kind, message)),
        kind_(kind),
        diagnostics_(std::move(diagnostics)) {}

  SolverErrorKind kind() const { return kind_; }
  bool retryable() const { return is_retryable(kind_); }
  const SolverDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  SolverErrorKind kind_;
  SolverDiagnostics diagnostics_;
};

}  // namespace ssnkit::support
