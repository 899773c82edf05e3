// The serve daemon's core: bounded admission, server threads that each take
// the next queued request, per-request lifecycle contexts, the
// content-addressed result cache, and graceful drain. Both isolation modes
// share that one path: a request's deadline is resolved once, it executes
// through respond() (serve/handlers.hpp) in process or in a supervised
// worker, and one WorkerOutcome switch turns the result into the response,
// the cache entry and the stats.
//
// Robustness contract (what the fault-injection and smoke tests pin down):
//
//   - Admission is bounded: when queue_capacity admitted requests are
//     waiting to start (queued, or held at the process-mode worker gate),
//     a new one is *shed* with a typed SSN-E064 response carrying a retry
//     hint — memory stays bounded no matter how hard clients push, and a
//     cheap request never waits behind an expensive one while a server
//     thread is idle.
//   - One request's failure is that request's problem: a SolverError (or a
//     per-request deadline, its own or --request-deadline) is serialized
//     back to its client as SSN-E065/E066 and the daemon keeps serving.
//   - Every *accepted* request gets exactly one response, even across a
//     drain: requests still queued when the drain deadline passes are
//     answered with SSN-E066 instead of being dropped.
//   - Results are cached by the request's content hash; the cache spills to
//     disk crash-safely and a restarted daemon warms from it.
//   - In process-isolation mode (supervisor.hpp) crashes, rlimit OOMs, and
//     non-cooperative hangs are also per-request events: the failing worker
//     is killed/reaped and its request answers typed SSN-E068/E069, with
//     repeat-offender cache keys quarantined as SSN-E070.
//
// Transport-free by design: submit_line()/ResponseSink is the whole
// surface, so the same core serves a Unix socket (socket.hpp), a stdin
// pipe, an in-process test, or the load-generator bench.
#pragma once

#include "serve/cache.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/supervisor.hpp"
#include "support/runcontext.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ssnkit::serve {

/// Where requests execute. kThread runs them on the server's own threads
/// (fast, but a segfault or non-cooperative hang belongs to the whole
/// daemon); kProcess runs each on a supervised worker process behind a
/// SIGKILL watchdog, so crashes and hangs degrade exactly one request.
enum class IsolateMode { kThread, kProcess };

// ssn-units: default_deadline_s=s, drain_deadline_s=s
struct ServerConfig {
  /// Server threads (support::resolve_threads semantics: 0 = auto). In
  /// kProcess mode it also sizes the default worker pool, and the server
  /// starts more threads if the pool has more workers.
  int threads = 0;
  /// Admission bound: requests beyond this many admitted but not yet
  /// started (queued, or held at the process-mode worker gate) are shed
  /// (E064).
  std::size_t queue_capacity = 64;
  /// Result-cache entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Crash-safe spill file for the cache; "" = in-memory only. Spilled
  /// every 256 successful results and on drain.
  std::string cache_file;
  /// Per-request wall-clock budget when the request names none; 0 = none.
  /// Forwarded on the worker wire, so at most the wire's kMaxDeadlineS.
  double default_deadline_s = 0.0;
  /// How long a drain waits for in-flight work before cancelling it.
  double drain_deadline_s = 5.0;
  /// Execution isolation mode; kProcess enables the Supervisor.
  IsolateMode isolate = IsolateMode::kThread;
  /// Supervisor tuning for kProcess mode. `workers` left at 0 becomes twice
  /// the resolved `threads` (at most 64), so a spare request per CPU keeps
  /// the workers busy while answers cross their socketpairs; the server
  /// starts at least one thread per worker either way.
  SupervisorConfig supervisor;
};

/// Delivery callback for one response line (no trailing newline). Invoked
/// from worker threads; the transport owns any serialization needed.
using ResponseSink = std::function<void(const std::string& line)>;

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parse, validate, and admit one request line. Responds immediately
  /// (through `sink`) for malformed input (SSN-E063) and overload shed
  /// (SSN-E064); otherwise queues the request for the next free server
  /// thread. Safe from any thread.
  void submit_line(const std::string& line, ResponseSink sink);

  /// Stop admitting; every further submit_line is shed. Idempotent.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Graceful shutdown: stop admission, wait up to drain_deadline_s for
  /// queued + in-flight requests, then cancel stragglers (each still gets
  /// its SSN-E066 response). Returns once every accepted request has
  /// responded exactly once, after joining the server threads and spilling
  /// the cache. Idempotent; the destructor calls it.
  void finish();

  /// Warnings from the cache warm-up (SSN-W067 lines; empty when the spill
  /// file was absent or clean).
  const std::vector<std::string>& warm_warnings() const {
    return warm_warnings_;
  }

  ServerStats stats() const;
  const ResultCache& cache() const { return cache_; }

  /// The supervisor behind kProcess mode (nullptr in thread mode); tests
  /// and the chaos soak use it to pick SIGKILL victims and read counters.
  const Supervisor* supervisor() const { return supervisor_.get(); }

  /// Route supervisor lifecycle events ({"event":"worker-spawn",...} and
  /// SSN-W075/W076 warning lines) to a transport. Events emitted before a
  /// sink is set (the initial pool spawn happens in the constructor) are
  /// buffered and flushed on the first set. Pass nullptr to go back to
  /// buffering. Thread-safe.
  void set_event_sink(ResponseSink sink);

  /// Serve newline-delimited requests from a stream until EOF (or until
  /// `stop_ctx` trips between lines), then finish(). Responses and the
  /// final stats line go to `out`, one JSON object per line. Returns 0.
  int serve_stream(std::istream& in, std::ostream& out,
                   const support::RunContext* stop_ctx = nullptr);

 private:
  struct Pending {
    ServeRequest request;
    ResponseSink sink;
  };

  /// A server thread: take the next queued request, process it, repeat.
  void worker_loop();
  void process(Pending& pending);
  /// Process mode: run `request` in a worker once it may take one (see
  /// in_workers_), or answer without running it if the drain deadline
  /// passes while it waits.
  WorkerOutcome execute_in_worker(const ServeRequest& request);
  void maybe_spill();
  void emit_event(const std::string& line);

  const ServerConfig config_;
  /// Event-sink state is declared before supervisor_ because the supervisor
  /// emits its initial worker-spawn events from inside Server's member
  /// initializer list — these must already be constructed by then.
  std::mutex ev_mu_;
  ResponseSink event_sink_;                 ///< guarded by ev_mu_
  std::vector<std::string> event_backlog_;  ///< guarded by ev_mu_
  /// The initial worker pool forks in the constructor, before the server
  /// threads start, while this process is still single-threaded; it
  /// outlives the server threads that call into it.
  std::unique_ptr<Supervisor> supervisor_;
  ResultCache cache_;
  CalibrationCache calibrations_;
  std::vector<std::string> warm_warnings_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< wakes server threads
  std::condition_variable cv_done_;   ///< wakes finish() when all responded
  std::deque<Pending> queue_;         ///< guarded by mu_
  /// finish() ran: server threads exit once queue_ is empty. Guarded by mu_.
  bool stopping_ = false;
  ServerStats stats_;                 ///< guarded by mu_
  std::uint64_t results_since_spill_ = 0;  ///< guarded by mu_

  /// Contexts of requests currently executing, so a drain past its
  /// deadline can cancel them cooperatively. Guarded by mu_.
  std::vector<support::RunContext*> active_;
  /// Process mode: a request in a worker, with when it got there and how
  /// many requests had left workers by then.
  struct InWorker {
    std::chrono::steady_clock::time_point since;
    std::uint64_t left_before = 0;
  };
  /// The requests now in workers. Up to the resolved --threads
  /// (compute_slots_) may be; beyond that the pool's spare workers take a
  /// request only while requests are short (execute_in_worker). Guarded by
  /// mu_.
  std::list<InWorker> in_workers_;
  int compute_slots_ = 0;
  /// Requests that have left workers. Guarded by mu_.
  std::uint64_t left_ = 0;
  /// The last request to leave a worker was not compute-bound. Guarded by
  /// mu_; false until one has, so a cold pool starts at --threads.
  bool short_requests_ = false;
  /// Held-back requests take a worker in arrival order: tickets issued and
  /// the ticket whose turn it is. Guarded by mu_.
  std::uint64_t worker_tickets_ = 0;
  std::uint64_t worker_turn_ = 0;
  std::condition_variable cv_worker_;  ///< wakes threads held back above

  std::atomic<bool> draining_{false};
  /// Set when the drain deadline passed: queued requests answer SSN-E066
  /// immediately instead of executing.
  std::atomic<bool> drain_expired_{false};
  std::atomic<std::uint64_t> id_seq_{0};
  bool finished_ = false;  ///< finish() already ran (main thread only)

  std::vector<std::thread> threads_;  ///< each runs worker_loop()
};

}  // namespace ssnkit::serve
