// The system under test runs in child processes: this executable
// re-executed as `ssnbench cli <argv>`, which is exactly `ssnkit <argv>`.
// One process per batch invocation or daemon gives each workload its own
// cold start and its own peak-RSS figure (from wait4).
#pragma once

#include <sched.h>
#include <string>
#include <vector>

namespace ssnbench {

/// Serve workloads split the allowed CPUs so the load generator and the
/// daemon never compete for a core: the daemon gets all but the last, the
/// generator the last. Pins the calling thread while in scope (a child
/// spawned meanwhile inherits the pin); a no-op with a single CPU.
class CpuPin {
 public:
  enum class Side { kDaemon, kGenerator };
  explicit CpuPin(Side side);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Set once at start-up: no child may outlive this monotonic time (ns).
/// Children still running past it are killed and the run fails.
void set_hard_deadline_ns(long long deadline_ns);

struct ProcResult {
  int exit_code = -1;     ///< -1 when the child died by a signal
  double wall_s = 0.0;    ///< spawn to reaped
  double maxrss_mb = 0.0; ///< peak RSS of the child and its reaped children
  std::string out;        ///< captured standard output
};

/// Run `ssnkit <args>` to completion, capturing its standard output.
/// Throws std::runtime_error when it cannot be spawned or overruns the
/// hard deadline.
ProcResult run_sut(const std::vector<std::string>& args);

/// A long-lived `ssnkit serve ...` child whose output goes to a log file.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& args, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  long long started_ns() const { return started_ns_; }
  /// SIGTERM, wait for the graceful drain, reap; `out` holds the log.
  ProcResult stop();

 private:
  /// Reap the child if it has exited; never blocks.
  bool exited();

  long pid_ = -1;
  long long started_ns_ = 0;
  std::string log_path_;
  ProcResult reaped_;
  bool done_ = false;
};

}  // namespace ssnbench
