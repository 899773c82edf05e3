// Supervised worker pool for `ssnkit serve --isolate=process`: crash
// containment, a hang watchdog, and poison-request quarantine.
//
// Thread mode (PR 7/8) already guarantees exactly-once typed responses and
// never-silently-wrong results — but only for failures that behave: a
// segfault in one solve kills every in-flight request, and a non-cooperative
// hang (a loop that never polls its RunContext) eats a server thread forever.
// The Supervisor moves execution behind a process boundary so those two
// failure classes become per-request events:
//
//   crash   A worker that dies (signal, rlimit OOM, bad exit) fails only
//           its own request, typed SSN-E069 with the waitpid verdict
//           attached; the slot respawns with exponential backoff so a
//           crash-looping workload cannot turn the daemon into fork(2) spam.
//   hang    Each in-flight request carries a wall-clock kill time
//           (deadline + grace). The watchdog SIGKILLs a worker that is
//           still busy past it and the request fails typed SSN-E068 —
//           deadlines are finally enforced against code that never polls.
//   poison  A crash-correlation table counts worker deaths per cache key.
//           A key that has killed `quarantine_after` workers is refused up
//           front with SSN-E070 and the offending request line is appended
//           to the quarantine file for offline repro — one bad design point
//           can never crash-loop the fleet.
//
// Workers speak the ordinary serve wire protocol over a socketpair
// (render_request in, one response line out), so the protocol invariants —
// exactly one line per request, typed codes, trust-stamped results — hold
// across the process hop with no second code path.
//
// Concurrency: execute() is called from the server's threads, one
// in-flight request per worker slot; a server in process mode starts at
// least one thread per worker, and its default pool is twice its resolved
// --threads (server.hpp), so on short requests one worker computes while
// another's answer crosses its socketpair. A single watchdog thread owns
// kills and respawns. The mutex guards slot state only — never held across
// fork, write, read, or waitpid.
#pragma once

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ssnkit::serve {

// ssn-units: grace_s=s, cpu_limit_s=s
struct SupervisorConfig {
  /// Worker processes (support::resolve_threads semantics: 0 = auto). A
  /// Server in process mode sets it: to twice its resolved thread count
  /// unless pinned (ServerConfig::supervisor).
  int workers = 0;
  /// Wall-clock slack past a request's deadline before the watchdog
  /// SIGKILLs the worker (covers serialization + a cooperative stop).
  double grace_s = 0.5;
  /// RLIMIT_AS per worker; 0 = unlimited.
  std::size_t mem_limit_mb = 1024;
  /// RLIMIT_CPU per worker; 0 = unlimited.
  double cpu_limit_s = 0.0;
  /// Worker deaths a cache key may cause before it is refused (SSN-E070).
  int quarantine_after = 2;
  /// Where quarantined request lines are journaled; "" = no journal. Each
  /// line is a complete request, so the file replays directly.
  std::string quarantine_file;
};

/// Worker-death bookkeeping per cache key, plus the quarantine decision.
/// Separate from the Supervisor so the threshold logic is unit-testable
/// without forking anything.
class CrashCorrelation {
 public:
  CrashCorrelation(int threshold, std::string journal_path)
      : threshold_(threshold), journal_path_(std::move(journal_path)) {}

  /// Record one worker death attributed to `key`; `request_line` is
  /// journaled when this death trips the threshold. Returns the updated
  /// death count for the key.
  int record(std::uint64_t key, const std::string& request_line);

  /// Whether the key has reached the quarantine threshold.
  bool quarantined(std::uint64_t key) const;

  std::size_t quarantined_keys() const;
  int threshold() const { return threshold_; }

 private:
  const int threshold_;
  const std::string journal_path_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, int> deaths_;  // guarded by mu_
  std::size_t quarantined_ = 0;                    // guarded by mu_
};

class Supervisor {
 public:
  /// Lifecycle event lines ({"event":"worker-spawn",...} and SSN-W075/W076
  /// warnings), one JSON object per call; may be invoked from any
  /// supervisor thread. Pass an empty function to discard.
  using EventSink = std::function<void(const std::string& line)>;

  /// Forks the initial pool (before the caller spins up its own threads,
  /// ideally) and starts the watchdog.
  Supervisor(const SupervisorConfig& config, EventSink events);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Run one request on an idle worker (blocking until one is free).
  /// `deadline_s` is the effective per-request budget the watchdog enforces
  /// (0 = no wall-clock kill); the worker arms its cooperative deadline
  /// from `request.deadline_s`, which the server sets to the same value.
  /// Thread-safe; one worker per concurrent call.
  WorkerOutcome execute(const ServeRequest& request, double deadline_s);

  /// Drain support: SIGKILL every busy worker so their requests resolve as
  /// kStopped promptly. Unlike cooperative cancellation this bounds a
  /// drain even when the hung code never polls.
  void kill_inflight();

  /// Stop the watchdog, kill and reap every worker. Idempotent; the
  /// destructor calls it. After shutdown, execute() returns kStopped.
  void shutdown();

  /// Live worker pids (tests and the chaos soak pick SIGKILL victims here).
  std::vector<long> worker_pids() const;

  /// Workers currently executing a request. Tests use this to time a
  /// mid-request SIGKILL: admission (stats.accepted) precedes the write to
  /// the worker, so only a busy slot is provably holding its request.
  std::size_t busy_workers() const;

  const CrashCorrelation& correlation() const { return correlation_; }

  struct Counters {
    std::uint64_t spawns = 0;
    std::uint64_t crashes = 0;   ///< deaths observed mid-request (E069)
    std::uint64_t timeouts = 0;  ///< watchdog kills (E068)
  };
  Counters counters() const;

  /// The respawn backoff schedule, exposed so tests can pin it down:
  /// min(25 ms * 2^(consecutive_crashes-1), 2 s); consecutive_crashes >= 1.
  static double restart_backoff_ms(int consecutive_crashes);

 private:
  enum class SlotState { kIdle, kBusy, kDead };
  struct Slot {
    long pid = -1;
    int fd = -1;
    int kill_slot = -1;  ///< crashclean kill-registry handle
    SlotState state = SlotState::kDead;
    bool timed_out = false;     ///< watchdog killed it for its deadline
    bool drain_killed = false;  ///< kill_inflight ended it
    bool kill_sent = false;     ///< SIGKILL already dispatched this request
    bool has_kill_at = false;
    std::chrono::steady_clock::time_point kill_at{};
    std::chrono::steady_clock::time_point respawn_at{};
    int consecutive_crashes = 0;
    std::string inbuf;  ///< owned by the executor while kBusy
  };

  void watchdog_loop();
  bool spawn_slot_locked(std::size_t index);
  /// Close + reap a dead worker and schedule its respawn. Returns the
  /// backoff applied. Caller holds mu_.
  double mark_dead_locked(Slot& slot);
  /// SIGKILL every busy worker, marking it drain-killed. Caller holds mu_.
  void kill_busy_locked();
  void emit(const std::string& line);

  const SupervisorConfig config_;
  const EventSink events_;
  CrashCorrelation correlation_;

  mutable std::mutex mu_;
  /// Executors wait here for an idle slot: a completion or a respawn wakes
  /// one, shutdown wakes all.
  std::condition_variable cv_idle_;
  /// The watchdog's own: it polls kill deadlines and respawns every 20 ms,
  /// and only shutdown wakes it early.
  std::condition_variable cv_watchdog_;
  std::vector<Slot> slots_;  // guarded by mu_ (inbuf: executor-owned)
  bool stop_ = false;        // guarded by mu_
  Counters counters_;        // guarded by mu_
  bool shut_down_ = false;   // main thread only

  std::thread watchdog_;
};

}  // namespace ssnkit::serve
