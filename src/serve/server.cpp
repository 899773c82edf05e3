#include "serve/server.hpp"

#include "support/atomic_file.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <utility>

namespace ssnkit::serve {

namespace {

// Spill the cache file every this many successful results (and on drain).
constexpr std::size_t kCacheSpillEvery = 256;

/// The supervisor's worker count follows the pool width unless pinned:
/// every pool thread must be able to hold a worker, or concurrency silently
/// collapses to the smaller of the two.
SupervisorConfig resolved_supervisor_config(const ServerConfig& config) {
  SupervisorConfig sup = config.supervisor;
  if (sup.workers <= 0) sup.workers = support::resolve_threads(config.threads);
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
      pool_(support::resolve_threads(config.threads)),
      cache_(config.cache_capacity) {
  if (!config_.cache_file.empty())
    warm_warnings_ = cache_.load(config_.cache_file);
  dispatcher_ = std::thread(&Server::dispatcher_loop, this);
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
  if (draining()) {
    // Never accepted, so E064 ("go elsewhere"), not E066: the E066 contract
    // is reserved for requests the daemon took responsibility for.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.shed;
    }
    sink(render_error(parsed.request.id, "SSN-E064",
                      "daemon is draining, request not admitted"));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= config_.queue_capacity) {
      ++stats_.shed;
      // Respond outside the lock; fall through via the early unlock below.
    } else {
      ++stats_.accepted;
      queue_.push_back(Pending{std::move(parsed.request), std::move(sink)});
      cv_work_.notify_one();
      return;
    }
  }
  sink(render_overloaded(parsed.request.id,
                         jittered_retry_after_ms(parsed.request.id)));
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_release);
}

void Server::dispatcher_loop() {
  std::vector<Pending> batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock,
                    [&] { return !queue_.empty() || stop_dispatcher_; });
      if (queue_.empty() && stop_dispatcher_) {
        dispatcher_done_ = true;
        cv_done_.notify_all();
        return;
      }
      batch.clear();
      batch.reserve(queue_.size());
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // No RunContext on the pool itself: a drain must not skip unclaimed
    // items (each still owes its client a response); process() handles the
    // expired-drain case by answering SSN-E066 without executing.
    pool_.for_index(batch.size(),
                    [&](std::size_t i) { process(batch[i]); });
  }
}

void Server::process(Pending& pending) {
  // Workers must never leak an exception: support::ThreadPool rethrows body
  // exceptions on the dispatcher thread, which would take the daemon down —
  // the exact opposite of the isolation contract.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string id = pending.request.id;
  const auto elapsed_us = [&t0] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::string response;
  std::string cache_warning;
  enum class Outcome {
    kOk,
    kCacheHit,
    kSolverError,
    kCancelled,
    kWorkerTimeout,
    kWorkerCrashed,
    kQuarantined
  } outcome = Outcome::kSolverError;
  try {
    if (drain_expired_.load(std::memory_order_acquire)) {
      response = render_error(
          id, "SSN-E066",
          "cancelled: drain deadline passed before the request started");
      outcome = Outcome::kCancelled;
    } else {
      const std::uint64_t key = cache_key(pending.request);
      std::optional<std::string> hit = cache_.get(key, &cache_warning);
      if (hit) {
        // Replay the stored verdict: only a verified/refined entry may be
        // served from cache. Degraded or unverified entries — and entries
        // with no parseable trust member at all (pre-trust-layer or
        // damaged) — are recomputed, never served as-is.
        verify::Verdict verdict = verify::Verdict::kUnverified;
        if (!extract_trust_verdict(*hit, verdict) ||
            verify::verdict_rank(verdict) >
                verify::verdict_rank(verify::Verdict::kRefined))
          hit.reset();
      }
      if (hit) {
        response = render_ok(id, *hit, /*cached=*/true, elapsed_us());
        outcome = Outcome::kCacheHit;
      } else if (supervisor_ != nullptr) {
        // Process isolation: the request executes in a sandboxed worker and
        // the watchdog enforces its wall-clock budget with SIGKILL, so even
        // a solve that never polls its context cannot outlive the deadline.
        const double deadline = pending.request.deadline_s > 0.0
                                    ? pending.request.deadline_s
                                    : config_.default_deadline_s;
        const WorkerOutcome wo = supervisor_->execute(pending.request, deadline);
        switch (wo.status) {
          case WorkerOutcome::Status::kOk:
            cache_.put(key, wo.fragment);
            maybe_spill();
            // The worker's verbatim response line: its id is the client's
            // and its elapsed_us measured the actual solve.
            response = wo.response;
            outcome = Outcome::kOk;
            break;
          case WorkerOutcome::Status::kError:
            response = wo.response;
            outcome = wo.cancelled ? Outcome::kCancelled
                                   : Outcome::kSolverError;
            break;
          case WorkerOutcome::Status::kWorkerTimeout:
            response = render_error(id, "SSN-E068", wo.detail);
            outcome = Outcome::kWorkerTimeout;
            break;
          case WorkerOutcome::Status::kWorkerCrashed:
            response = render_error(id, "SSN-E069", wo.detail);
            outcome = Outcome::kWorkerCrashed;
            break;
          case WorkerOutcome::Status::kQuarantined:
            response = render_error(id, "SSN-E070", wo.detail);
            outcome = Outcome::kQuarantined;
            break;
          case WorkerOutcome::Status::kStopped:
            response = render_error(
                id, "SSN-E066",
                "cancelled: daemon drained while the request was in flight");
            outcome = Outcome::kCancelled;
            break;
        }
      } else {
        support::RunContext ctx;
        const double deadline = pending.request.deadline_s > 0.0
                                    ? pending.request.deadline_s
                                    : config_.default_deadline_s;
        if (deadline > 0.0) ctx.set_timeout(deadline);
        {
          std::lock_guard<std::mutex> lock(mu_);
          active_.push_back(&ctx);
          // A drain that already expired while we queued must still cancel
          // us; the expiry sweep ran before we registered.
          if (drain_expired_.load(std::memory_order_acquire))
            ctx.request_cancel();
        }
        try {
          const std::string fragment =
              execute_request(pending.request, calibrations_, &ctx);
          cache_.put(key, fragment);
          maybe_spill();
          response = render_ok(id, fragment, /*cached=*/false, elapsed_us());
          outcome = Outcome::kOk;
        } catch (const support::SolverError& e) {
          response = render_solver_error(id, e);
          outcome = support::is_stop_kind(e.kind()) ? Outcome::kCancelled
                                                    : Outcome::kSolverError;
        } catch (const NonFiniteJsonError& e) {
          // A NaN/inf reached the serializer: the result is corrupt and is
          // refused with its own typed code rather than rendered as null.
          response = render_error(id, "SSN-E067", e.what());
          outcome = Outcome::kSolverError;
        } catch (const std::exception& e) {
          response = render_error(id, "SSN-E065", e.what());
          outcome = Outcome::kSolverError;
        }
        std::lock_guard<std::mutex> lock(mu_);
        active_.erase(std::remove(active_.begin(), active_.end(), &ctx),
                      active_.end());
      }
    }
  } catch (...) {  // ssnlint-ignore(SSN-L005)
    // Isolation backstop: anything escaping a worker would be rethrown by
    // the pool on the dispatcher thread and kill the daemon.
    response = render_error(id, "SSN-E065", "internal error");
    outcome = Outcome::kSolverError;
  }
  // Count the response before emitting it: a client that has seen its
  // response line must never observe stats that do not yet include it
  // (the accepted == responded drain contract is checked from outside).
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.responded;
    switch (outcome) {
      case Outcome::kOk: ++stats_.ok; break;
      case Outcome::kCacheHit:
        ++stats_.ok;
        ++stats_.cache_hits;
        break;
      case Outcome::kSolverError: ++stats_.solver_errors; break;
      case Outcome::kCancelled: ++stats_.cancelled; break;
      case Outcome::kWorkerTimeout: ++stats_.worker_timeouts; break;
      case Outcome::kWorkerCrashed: ++stats_.worker_crashes; break;
      case Outcome::kQuarantined: ++stats_.quarantined; break;
    }
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
    stop_dispatcher_ = true;
    cv_work_.notify_all();
    const auto deadline = support::deadline_after(config_.drain_deadline_s);
    if (!cv_done_.wait_until(lock, deadline,
                             [&] { return dispatcher_done_; })) {
      // Drain deadline passed: cancel in-flight requests cooperatively
      // (each answers SSN-E066 itself) and tell queued-but-unstarted ones
      // to answer without executing. Then wait for real — the engine polls
      // its context every accepted step, so this converges quickly.
      drain_expired_.store(true, std::memory_order_release);
      for (support::RunContext* ctx : active_) ctx->request_cancel();
      // Process mode routes the drain deadline through the watchdog's
      // SIGKILL: a worker wedged in code that never polls would otherwise
      // stall this wait — and the whole stop() — indefinitely. (Thread
      // mode has no such lever; that residual exposure is exactly why
      // --isolate=process exists.)
      if (supervisor_ != nullptr) supervisor_->kill_inflight();
      cv_done_.wait(lock, [&] { return dispatcher_done_; });
    }
  }
  dispatcher_.join();
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
