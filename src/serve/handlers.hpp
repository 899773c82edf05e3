// Request execution for the serve daemon: maps a validated ServeRequest
// onto the analysis layer (closed-form estimate, optional simulator verify,
// closed-form Monte Carlo, driver sweep) and renders the result fragment.
//
// Handlers are pure with respect to the daemon: they throw
// support::SolverError on solver failure (including the cooperative stop
// kinds when the request's RunContext fires) and std::exception for
// anything else. respond() is the one place that turns those into a typed
// response line (ok, SSN-E065, SSN-E066 or SSN-E067): a worker process
// writes its line to the supervisor, and thread mode calls it in process,
// so a client cannot tell which isolation mode answered. Nothing here
// touches sockets, queues, or global state — which is what makes the
// handlers directly unit-testable.
#pragma once

#include "analysis/calibrate.hpp"
#include "serve/protocol.hpp"
#include "support/runcontext.hpp"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ssnkit::serve {

/// Shared calibration store: fitting the ASDM + alpha-power devices costs
/// far more than one closed-form evaluation, and every request for the same
/// (tech, golden) pair needs the identical fit. Thread-safe; entries are
/// immutable once published.
class CalibrationCache {
 public:
  /// Fit (or return the already-fitted) calibration for a tech/golden pair.
  std::shared_ptr<const analysis::Calibration> get(const std::string& tech,
                                                   const std::string& golden);

 private:
  std::mutex mu_;
  std::unordered_map<std::string,
                     std::shared_ptr<const analysis::Calibration>>
      fits_;  // guarded by mu_
};

/// Execute one request and return its JSON result fragment (a complete
/// JSON value, single line). `ctx` is the request's lifecycle context; the
/// sim-backed paths poll it, and a stop surfaces as a SolverError with a
/// stop kind. Throws on failure — never returns a partial result.
std::string execute_request(const ServeRequest& request,
                            CalibrationCache& calibrations,
                            const support::RunContext* ctx);

/// One executed (or refused) request, as the server sees it in either
/// isolation mode.
struct WorkerOutcome {
  enum class Status {
    kOk,             ///< an ok response; fragment cacheable
    kError,          ///< a typed error response (pass through)
    kWorkerTimeout,  ///< watchdog SIGKILL — render SSN-E068
    kWorkerCrashed,  ///< worker died mid-request — render SSN-E069
    kQuarantined,    ///< refused up front — render SSN-E070
    kStopped,        ///< drain/shutdown ended it — render SSN-E066
  };
  Status status = Status::kStopped;
  std::string response;   ///< the verbatim response line (kOk / kError)
  std::string fragment;   ///< result fragment (kOk only)
  bool cancelled = false; ///< kError carrying SSN-E066 (the request's deadline)
  std::string detail;     ///< human-readable cause for the typed failures
};

/// Run execute_request under `ctx`, armed with the request's deadline
/// (`deadline_s`, 0 = none), and type the result as one response line:
/// kOk with the fragment, or kError carrying SSN-E065/E066 (SolverError),
/// SSN-E067 (a non-finite result) or SSN-E065 (any other exception).
WorkerOutcome respond(const ServeRequest& request,
                      CalibrationCache& calibrations,
                      support::RunContext& ctx);

}  // namespace ssnkit::serve
