#include "serve/server.hpp"

#include "support/atomic_file.hpp"
#include "support/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

namespace ssnkit::serve {

namespace {

// Spill the cache file every this many successful results (and on drain).
constexpr std::size_t kCacheSpillEvery = 256;

/// A request that runs this long in a worker is compute-bound: its
/// socketpair round trip (tens of µs) is under 1 % of its time, so a spare
/// worker has nothing to hide behind it and would only share its CPU.
constexpr auto kComputeBound = std::chrono::milliseconds(10);

constexpr const char* kDrainedBeforeStart =
    "cancelled: drain deadline passed before the request started";

/// A cached result that may be replayed: only a verified/refined entry.
/// Degraded or unverified entries — and entries with no parseable trust
/// member at all (pre-trust-layer or damaged) — are recomputed, never
/// served as-is.
std::optional<std::string> replayable_hit(ResultCache& cache,
                                          std::uint64_t key,
                                          std::string& warning) {
  std::optional<std::string> hit = cache.get(key, &warning);
  verify::Verdict verdict = verify::Verdict::kUnverified;
  if (hit && (!extract_trust_verdict(*hit, verdict) ||
              verify::verdict_rank(verdict) >
                  verify::verdict_rank(verify::Verdict::kRefined)))
    hit.reset();
  return hit;
}

/// The supervisor's pool: twice the server's resolved thread count unless
/// pinned, clamped as the Supervisor clamps it. A server thread holds its
/// worker for the whole round trip, so a worker idles while its request and
/// answer cross the socketpair; on requests short enough for that round
/// trip to be a sizeable share of their time, a spare request per CPU keeps
/// the CPU busy meanwhile. Compute-bound requests get no spare workers
/// (Server::execute_in_worker).
SupervisorConfig resolved_supervisor_config(const ServerConfig& config) {
  SupervisorConfig sup = config.supervisor;
  sup.workers = support::resolve_threads(
      sup.workers > 0 ? sup.workers
                      : 2 * support::resolve_threads(config.threads));
  return sup;
}

}  // namespace

Server::Server(const ServerConfig& config)
    : config_(config),
      supervisor_(config.isolate == IsolateMode::kProcess
                      ? std::make_unique<Supervisor>(
                            resolved_supervisor_config(config),
                            [this](const std::string& line) {
                              emit_event(line);
                            })
                      : nullptr),
      cache_(config.cache_capacity) {
  if (!config_.cache_file.empty())
    warm_warnings_ = cache_.load(config_.cache_file);
  // Process mode starts a thread per worker, so every worker can hold a
  // request, and never fewer than --threads: the threads beyond the pool
  // answer what needs no worker (cache hits, quarantine refusals) while
  // every worker is busy.
  int threads = support::resolve_threads(config.threads);
  if (supervisor_ != nullptr) {
    compute_slots_ = threads;
    threads = std::max(threads, resolved_supervisor_config(config).workers);
  }
  threads_.reserve(std::size_t(threads));
  try {
    for (int i = 0; i < threads; ++i)
      threads_.emplace_back(&Server::worker_loop, this);
  } catch (...) {
    // Destroying a joinable thread ends the program: stop and join the
    // threads that did start before the failure leaves the constructor.
    finish();
    throw;
  }
}

Server::~Server() { finish(); }

void Server::submit_line(const std::string& line, ResponseSink sink) {
  RequestParse parsed = parse_request(line);
  if (!parsed.ok) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.malformed;
    }
    sink(render_error(parsed.id, "SSN-E063", parsed.error));
    return;
  }
  if (parsed.request.id.empty()) {
    std::string generated =
        std::to_string(id_seq_.fetch_add(1, std::memory_order_relaxed));
    generated.insert(generated.begin(), 'q');
    parsed.request.id = std::move(generated);
  }
  bool was_draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Read under mu_, so no request is admitted after finish() has told
    // the server threads to exit once the queue is empty.
    was_draining = draining();
    // Waiting to start means queued or, in process mode, dequeued but held
    // at the worker gate: tickets drawn and not yet served.
    const std::size_t waiting =
        queue_.size() + std::size_t(worker_tickets_ - worker_turn_);
    if (!was_draining && waiting < config_.queue_capacity) {
      ++stats_.accepted;
      queue_.push_back(Pending{std::move(parsed.request), std::move(sink)});
      cv_work_.notify_one();
      return;
    }
    ++stats_.shed;
  }
  // Respond outside the lock. A draining daemon never accepted the
  // request, so E064 ("go elsewhere"), not E066: the E066 contract is
  // reserved for requests the daemon took responsibility for.
  sink(was_draining
           ? render_error(parsed.request.id, "SSN-E064",
                          "daemon is draining, request not admitted")
           : render_overloaded(parsed.request.id,
                               jittered_retry_after_ms(parsed.request.id)));
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_release);
}

void Server::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping, and nothing left to answer
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    process(pending);
  }
}

void Server::process(Pending& pending) {
  const auto t0 = std::chrono::steady_clock::now();
  ServeRequest& request = pending.request;
  // Resolve the effective deadline once, before either isolation mode runs:
  // thread mode, the worker wire, the watchdog and a quarantine line all
  // read it from the request.
  if (!(request.deadline_s > 0.0))
    request.deadline_s = config_.default_deadline_s;
  std::string response;
  std::string cache_warning;
  bool cache_hit = false;
  std::uint64_t ServerStats::*counter = &ServerStats::solver_errors;
  // A server thread must never leak an exception: it would terminate the
  // daemon — the exact opposite of the isolation contract.
  try {
    const std::uint64_t key = cache_key(request);
    WorkerOutcome outcome;  // kStopped until a branch below answers
    if (drain_expired_.load(std::memory_order_acquire)) {
      outcome.detail = kDrainedBeforeStart;
    } else if (const std::optional<std::string> hit =
                   replayable_hit(cache_, key, cache_warning)) {
      cache_hit = true;
      outcome.status = WorkerOutcome::Status::kOk;
      outcome.response = render_ok(
          request.id, *hit, /*cached=*/true,
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else if (supervisor_ != nullptr) {
      // Process isolation: the request executes in a sandboxed worker and
      // the watchdog enforces its deadline with SIGKILL, so even a solve
      // that never polls its context cannot outlive it.
      outcome = execute_in_worker(request);
    } else {
      // Thread mode: the worker's respond(), in process, under a context
      // a drain past its deadline can cancel.
      support::RunContext ctx;
      {
        std::lock_guard<std::mutex> lock(mu_);
        active_.push_back(&ctx);
        // A drain that already expired while we queued must still cancel
        // us; the expiry sweep ran before we registered.
        if (drain_expired_.load(std::memory_order_acquire))
          ctx.request_cancel();
      }
      outcome = respond(request, calibrations_, ctx);
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(std::remove(active_.begin(), active_.end(), &ctx),
                    active_.end());
    }
    response = outcome.response;
    switch (outcome.status) {
      case WorkerOutcome::Status::kOk:
        counter = &ServerStats::ok;
        if (!cache_hit) {
          cache_.put(key, outcome.fragment);
          maybe_spill();
        }
        break;
      case WorkerOutcome::Status::kError:
        // Typed by respond() already (E065/E066/E067): pass it through.
        if (outcome.cancelled) counter = &ServerStats::cancelled;
        break;
      case WorkerOutcome::Status::kWorkerTimeout:
        counter = &ServerStats::worker_timeouts;
        response = render_error(request.id, "SSN-E068", outcome.detail);
        break;
      case WorkerOutcome::Status::kWorkerCrashed:
        counter = &ServerStats::worker_crashes;
        response = render_error(request.id, "SSN-E069", outcome.detail);
        break;
      case WorkerOutcome::Status::kQuarantined:
        counter = &ServerStats::quarantined;
        response = render_error(request.id, "SSN-E070", outcome.detail);
        break;
      case WorkerOutcome::Status::kStopped:
        counter = &ServerStats::cancelled;
        response = render_error(request.id, "SSN-E066", outcome.detail);
        break;
    }
  } catch (...) {  // ssnlint-ignore(SSN-L005)
    // Isolation backstop: anything escaping here would kill the daemon.
    response = render_error(request.id, "SSN-E065", "internal error");
    counter = &ServerStats::solver_errors;
    cache_hit = false;
  }
  // Count the response before emitting it: a client that has seen its
  // response line must never observe stats that do not yet include it
  // (the accepted == responded drain contract is checked from outside).
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.responded;
    ++(stats_.*counter);
    if (cache_hit) ++stats_.cache_hits;
    if (stats_.responded == stats_.accepted) cv_done_.notify_all();
  }
  try {
    if (!cache_warning.empty())
      pending.sink(
          "{\"event\":\"warning\",\"code\":\"SSN-W072\",\"message\":\"" +
          json_escape(cache_warning) + "\"}");
    pending.sink(response);
  } catch (...) {  // ssnlint-ignore(SSN-L005)
    // A dead client cannot be responded to; the daemon carries on.
  }
}

WorkerOutcome Server::execute_in_worker(const ServeRequest& request) {
  using Clock = std::chrono::steady_clock;
  // Up to --threads requests compute in workers at once, as they would on
  // one worker per CPU. A spare worker takes one more only while requests
  // are short: the last request to leave a worker ran under kComputeBound,
  // and no request now in a worker has run that long while others came and
  // went. Then it computes while another's answer crosses its socketpair.
  // Next to compute-bound requests it would only halve their CPU, and
  // their deadlines, clocked from the moment a worker starts them, would
  // expire at half the work; waiting here keeps a request's clock stopped,
  // as in the queue. Tickets keep the waiters in arrival order.
  const auto may_take_worker = [&] {
    if (in_workers_.size() < std::size_t(compute_slots_)) return true;
    if (!short_requests_) return false;
    const Clock::time_point now = Clock::now();
    return std::none_of(
        in_workers_.begin(), in_workers_.end(), [&](const InWorker& w) {
          return now - w.since >= kComputeBound && w.left_before != left_;
        });
  };
  std::list<InWorker>::iterator self;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t ticket = worker_tickets_++;
    cv_worker_.wait(lock, [&] {
      return drain_expired_.load(std::memory_order_acquire) ||
             (ticket == worker_turn_ && may_take_worker());
    });
    if (drain_expired_.load(std::memory_order_acquire)) {
      WorkerOutcome stopped;
      stopped.detail = kDrainedBeforeStart;
      return stopped;
    }
    ++worker_turn_;
    self = in_workers_.insert(in_workers_.end(), {Clock::now(), left_});
  }
  cv_worker_.notify_all();  // the next ticket may go too
  const auto leave = [&] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      short_requests_ = Clock::now() - self->since < kComputeBound;
      in_workers_.erase(self);
      ++left_;
    }
    cv_worker_.notify_all();
  };
  WorkerOutcome outcome;
  try {
    outcome = supervisor_->execute(request, request.deadline_s);
  } catch (...) {
    leave();
    throw;
  }
  leave();
  return outcome;
}

void Server::maybe_spill() {
  if (config_.cache_file.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++results_since_spill_ < kCacheSpillEvery) return;
    results_since_spill_ = 0;
  }
  try {
    cache_.save(config_.cache_file);
  } catch (const support::IoError&) {
    // A failed periodic spill costs warm-start coverage, never a response;
    // the drain-time save retries, and a still-failing disk surfaces there.
  }
}

void Server::finish() {
  if (finished_) return;
  finished_ = true;
  begin_drain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    cv_work_.notify_all();
    const auto all_responded = [&] {
      return stats_.responded == stats_.accepted;
    };
    const auto deadline = support::deadline_after(config_.drain_deadline_s);
    if (!cv_done_.wait_until(lock, deadline, all_responded)) {
      // Drain deadline passed: cancel in-flight requests cooperatively
      // (each answers SSN-E066 itself) and tell queued-but-unstarted ones
      // to answer without executing. Then wait for real — the engine polls
      // its context every accepted step, so this converges quickly.
      drain_expired_.store(true, std::memory_order_release);
      cv_worker_.notify_all();
      for (support::RunContext* ctx : active_) ctx->request_cancel();
      // Process mode routes the drain deadline through the watchdog's
      // SIGKILL: a worker wedged in code that never polls would otherwise
      // stall this wait — and the whole stop() — indefinitely. (Thread
      // mode has no such lever; that residual exposure is exactly why
      // --isolate=process exists.)
      if (supervisor_ != nullptr) supervisor_->kill_inflight();
      cv_done_.wait(lock, all_responded);
    }
  }
  // Every server thread finds the queue empty and exits; joining them also
  // waits out the last response's delivery.
  for (std::thread& thread : threads_) thread.join();
  // No request is in flight past this point, so the workers can be killed
  // and reaped without racing an execute().
  if (supervisor_ != nullptr) supervisor_->shutdown();
  if (!config_.cache_file.empty()) {
    try {
      cache_.save(config_.cache_file);
    } catch (const support::IoError&) {
      // Losing the spill loses warm starts, nothing else; the daemon is
      // exiting and has nowhere structured left to report I/O failure.
    }
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Server::set_event_sink(ResponseSink sink) {
  std::vector<std::string> backlog;
  {
    std::lock_guard<std::mutex> lock(ev_mu_);
    event_sink_ = std::move(sink);
    if (event_sink_) backlog.swap(event_backlog_);
  }
  // Flush outside ev_mu_ — the sink may take the transport's own lock.
  for (const std::string& line : backlog) {
    try {
      event_sink_(line);
    } catch (...) {  // ssnlint-ignore(SSN-L005)
      // Event lines are advisory; a dead transport must not hurt serving.
    }
  }
}

void Server::emit_event(const std::string& line) {
  ResponseSink sink;
  {
    std::lock_guard<std::mutex> lock(ev_mu_);
    if (!event_sink_) {
      // Buffered until a transport attaches (the initial pool spawns in the
      // constructor); bounded so a crash-looping pool can't hoard memory.
      if (event_backlog_.size() < 1024) event_backlog_.push_back(line);
      return;
    }
    sink = event_sink_;
  }
  try {
    sink(line);
  } catch (...) {  // ssnlint-ignore(SSN-L005)
    // Event lines are advisory; a dead transport must not hurt serving.
  }
}

int Server::serve_stream(std::istream& in, std::ostream& out,
                         const support::RunContext* stop_ctx) {
  std::mutex out_mu;
  for (const std::string& warning : warm_warnings_) {
    out << "{\"event\":\"warning\",\"code\":\"SSN-W067\",\"message\":\""
        << json_escape(warning) << "\"}\n";
  }
  out.flush();
  const ResponseSink sink = [&out, &out_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << line << '\n';
    out.flush();
  };
  // Supervisor lifecycle events share the stream (and its lock) with
  // responses; buffered constructor-time spawn events flush here.
  set_event_sink(sink);
  std::string line;
  while (!(stop_ctx != nullptr &&
           stop_ctx->stop_requested() != support::StopReason::kNone) &&
         std::getline(in, line)) {
    if (line.empty()) continue;
    submit_line(line, sink);
  }
  finish();
  // The supervisor is shut down inside finish(); detach the sink so no
  // event can outlive this frame's stream references.
  set_event_sink(nullptr);
  {
    std::lock_guard<std::mutex> lock(out_mu);
    out << render_stats(stats()) << '\n';
    out.flush();
  }
  return 0;
}

}  // namespace ssnkit::serve
