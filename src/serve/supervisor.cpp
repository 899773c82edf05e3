#include "serve/supervisor.hpp"

#include "serve/worker.hpp"
#include "support/crashclean.hpp"
#include "support/journal.hpp"
#include "support/parallel.hpp"
#include "support/runcontext.hpp"
#include "support/subprocess.hpp"

#include <fstream>
#include <utility>

#include <unistd.h>

namespace ssnkit::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Respawn backoff: kBackoffBaseMs * 2^(consecutive-1), capped at kBackoffMaxMs.
constexpr double kBackoffBaseMs = 25.0;
constexpr double kBackoffMaxMs = 2000.0;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

// --- CrashCorrelation --------------------------------------------------------

int CrashCorrelation::record(std::uint64_t key,
                             const std::string& request_line) {
  std::lock_guard<std::mutex> lock(mu_);
  const int count = ++deaths_[key];
  if (count == threshold_) {
    ++quarantined_;
    if (!journal_path_.empty()) {
      // Append the raw request line: the quarantine file replays directly
      // (`ssnkit serve < quarantine.jsonl`) for offline repro. Plain append
      // is fine — one writer at a time under mu_, and a torn tail after a
      // crash costs a repro line, never correctness.
      std::ofstream out(journal_path_, std::ios::app);
      if (out) out << request_line << "\n";
    }
  }
  return count;
}

bool CrashCorrelation::quarantined(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deaths_.find(key);
  return it != deaths_.end() && it->second >= threshold_;
}

std::size_t CrashCorrelation::quarantined_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

// --- Supervisor --------------------------------------------------------------

Supervisor::Supervisor(const SupervisorConfig& config, EventSink events)
    : config_(config),
      events_(std::move(events)),
      correlation_(config.quarantine_after, config.quarantine_file) {
  const int workers = support::resolve_threads(config_.workers);
  slots_.resize(std::size_t(workers));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) spawn_slot_locked(i);
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Supervisor::~Supervisor() { shutdown(); }

double Supervisor::restart_backoff_ms(int consecutive_crashes) {
  if (consecutive_crashes < 1) consecutive_crashes = 1;
  double backoff = kBackoffBaseMs;
  for (int i = 1; i < consecutive_crashes && backoff < kBackoffMaxMs; ++i)
    backoff *= 2.0;
  return backoff < kBackoffMaxMs ? backoff : kBackoffMaxMs;
}

void Supervisor::emit(const std::string& line) {
  if (events_) events_(line);
}

bool Supervisor::spawn_slot_locked(std::size_t index) {
  Slot& slot = slots_[index];
  // The child inherits every other worker's parent-end fd across fork;
  // close them so EOF semantics stay one-to-one (a worker's death must
  // surface as EOF on exactly its own socketpair).
  std::vector<int> other_fds;
  for (const Slot& s : slots_)
    if (s.fd >= 0) other_fds.push_back(s.fd);
  support::ChildLimits limits;
  limits.mem_limit_mb = config_.mem_limit_mb;
  limits.cpu_limit_s = config_.cpu_limit_s;
  support::ChildProcess child;
  std::string err;
  const bool ok = support::spawn_child(
      [other_fds](int fd) {
        for (int ofd : other_fds) ::close(ofd);
        return worker_main(fd);
      },
      limits, child, err);
  if (!ok) {
    slot.state = SlotState::kDead;
    slot.consecutive_crashes += 1;
    slot.respawn_at =
        Clock::now() + ms_duration(restart_backoff_ms(slot.consecutive_crashes));
    emit("{\"event\":\"warning\",\"code\":\"SSN-W075\",\"message\":\"worker "
         "spawn failed (slot " + std::to_string(index) + "): " +
         json_escape(err) + "\"}");
    return false;
  }
  slot.pid = child.pid;
  slot.fd = child.fd;
  slot.kill_slot = support::crash_kill_register(child.pid);
  slot.state = SlotState::kIdle;
  slot.timed_out = false;
  slot.drain_killed = false;
  slot.kill_sent = false;
  slot.has_kill_at = false;
  slot.inbuf.clear();
  counters_.spawns += 1;
  emit("{\"event\":\"worker-spawn\",\"slot\":" + std::to_string(index) +
       ",\"pid\":" + std::to_string(child.pid) + "}");
  return true;
}

double Supervisor::mark_dead_locked(Slot& slot) {
  if (slot.fd >= 0) ::close(slot.fd);
  slot.fd = -1;
  support::crash_kill_unregister(slot.kill_slot);
  slot.kill_slot = -1;
  slot.pid = -1;
  slot.state = SlotState::kDead;
  slot.has_kill_at = false;
  slot.kill_sent = false;
  slot.inbuf.clear();
  slot.consecutive_crashes += 1;
  const double backoff = restart_backoff_ms(slot.consecutive_crashes);
  slot.respawn_at = Clock::now() + ms_duration(backoff);
  return backoff;
}

void Supervisor::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.state == SlotState::kBusy && slot.has_kill_at &&
          !slot.kill_sent && now >= slot.kill_at) {
        // Non-cooperative hang (or a solve that ignored its cooperative
        // stop): end it with the one signal nothing can block. The
        // executor blocked on this worker observes EOF and types E068.
        slot.timed_out = true;
        slot.kill_sent = true;
        support::kill_child(slot.pid);
      }
      if (slot.state == SlotState::kDead && slot.pid < 0 &&
          now >= slot.respawn_at) {
        if (spawn_slot_locked(i)) cv_idle_.notify_all();
      }
    }
    cv_watchdog_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

WorkerOutcome Supervisor::execute(const ServeRequest& request,
                                  double deadline_s) {
  const std::uint64_t key = cache_key(request);
  if (correlation_.quarantined(key)) {
    WorkerOutcome out;
    out.status = WorkerOutcome::Status::kQuarantined;
    out.detail = "request quarantined: cache key " + support::hex_u64(key) +
                 " has killed " + std::to_string(correlation_.threshold()) +
                 " workers";
    return out;
  }
  const std::string line = render_request(request);

  // A worker can die *between* requests (delayed rlimit kill, spawn flake);
  // a request that never reached a worker is retried on another slot
  // instead of being blamed on the key. Bounded so a fully wedged pool
  // still resolves typed.
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::size_t index = slots_.size();
    long pid = -1;
    int fd = -1;
    std::string* inbuf = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_idle_.wait(lock, [&] {
        if (stop_) return true;
        for (std::size_t i = 0; i < slots_.size(); ++i)
          if (slots_[i].state == SlotState::kIdle) {
            index = i;
            return true;
          }
        return false;
      });
      if (stop_) break;
      Slot& slot = slots_[index];
      slot.state = SlotState::kBusy;
      slot.timed_out = false;
      slot.drain_killed = false;
      slot.kill_sent = false;
      slot.has_kill_at = deadline_s > 0.0;
      if (slot.has_kill_at)
        slot.kill_at = support::deadline_after(deadline_s + config_.grace_s);
      slot.inbuf.clear();
      pid = slot.pid;
      fd = slot.fd;
      inbuf = &slot.inbuf;  // executor-owned while kBusy
    }

    const bool wrote = support::write_line(fd, line);
    std::string response;
    auto status = support::ReadLineStatus::kEof;
    if (wrote) status = support::read_line(fd, *inbuf, response);

    if (status == support::ReadLineStatus::kLine) {
      ResponseView view;
      if (split_response_line(response, view)) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          Slot& slot = slots_[index];
          slot.state = SlotState::kIdle;
          slot.has_kill_at = false;
          slot.consecutive_crashes = 0;  // a served request proves health
        }
        cv_idle_.notify_one();
        WorkerOutcome out;
        out.status = view.ok ? WorkerOutcome::Status::kOk
                             : WorkerOutcome::Status::kError;
        out.response = response;
        out.fragment = view.fragment;
        out.cancelled = view.cancelled;
        return out;
      }
      // A worker that emits garbage has corrupted state: same treatment as
      // a crash (the kill below makes the blocking reap safe).
      support::kill_child(pid);
    } else if (status == support::ReadLineStatus::kError) {
      support::kill_child(pid);
    }

    // Death path: EOF, read error, or garbage. Reap, schedule respawn,
    // attribute, type.
    support::ExitStatus es;
    support::wait_child(pid, es);
    bool was_timeout = false;
    bool was_drain = false;
    bool stopping = false;
    double backoff_ms = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_[index];
      was_timeout = slot.timed_out;
      was_drain = slot.drain_killed;
      stopping = stop_;
      if (wrote && !was_drain && !stopping) {
        if (was_timeout)
          counters_.timeouts += 1;
        else
          counters_.crashes += 1;
      }
      backoff_ms = mark_dead_locked(slot);
    }
    emit("{\"event\":\"warning\",\"code\":\"SSN-W075\",\"message\":\"worker " +
         std::to_string(pid) + " (slot " + std::to_string(index) +
         ") died: " + json_escape(support::describe_exit(es)) +
         "; restart in " + std::to_string(int(backoff_ms)) + " ms\"}");

    if (was_drain || stopping) break;  // typed SSN-E066 by the caller
    if (!wrote) continue;  // never accepted the request: not the key's fault

    const int count = correlation_.record(key, line);
    if (count == config_.quarantine_after)
      emit("{\"event\":\"warning\",\"code\":\"SSN-W076\",\"message\":\"cache "
           "key " + support::hex_u64(key) + " quarantined after " +
           std::to_string(count) + " worker deaths\"}");

    WorkerOutcome out;
    if (was_timeout) {
      out.status = WorkerOutcome::Status::kWorkerTimeout;
      out.detail = "worker exceeded its " + std::to_string(deadline_s) +
                   " s deadline (+" + std::to_string(config_.grace_s) +
                   " s grace) and was killed";
    } else {
      out.status = WorkerOutcome::Status::kWorkerCrashed;
      out.detail = "worker died mid-request: " + support::describe_exit(es);
    }
    return out;
  }

  WorkerOutcome out;
  out.status = WorkerOutcome::Status::kStopped;
  out.detail = "cancelled: daemon drained while the request was in flight";
  return out;
}

void Supervisor::kill_busy_locked() {
  for (Slot& slot : slots_) {
    if (slot.state != SlotState::kBusy) continue;
    slot.drain_killed = true;
    slot.kill_sent = true;
    support::kill_child(slot.pid);
  }
}

void Supervisor::kill_inflight() {
  std::lock_guard<std::mutex> lock(mu_);
  kill_busy_locked();
}

void Supervisor::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Unblock executors stuck on busy workers: without their SIGKILL the
    // socketpair never EOFs. (The server guarantees no new execute() calls
    // race shutdown — its threads are joined first.)
    kill_busy_locked();
  }
  cv_idle_.notify_all();
  cv_watchdog_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (slot.pid > 0) {
      support::kill_child(slot.pid);
      support::ExitStatus es;
      support::wait_child(slot.pid, es);
    }
    if (slot.fd >= 0) ::close(slot.fd);
    slot.fd = -1;
    support::crash_kill_unregister(slot.kill_slot);
    slot.kill_slot = -1;
    slot.pid = -1;
    slot.state = SlotState::kDead;
  }
}

std::vector<long> Supervisor::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<long> pids;
  for (const Slot& slot : slots_)
    if (slot.pid > 0) pids.push_back(slot.pid);
  return pids;
}

std::size_t Supervisor::busy_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t busy = 0;
  for (const Slot& slot : slots_)
    if (slot.state == SlotState::kBusy) ++busy;
  return busy;
}

Supervisor::Counters Supervisor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace ssnkit::serve
