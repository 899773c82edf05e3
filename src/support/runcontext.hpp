// Job lifecycle control for long-running work: cooperative cancellation, a
// monotonic wall-clock deadline, and an item budget, carried by one
// RunContext that the CLI threads through the batch drivers down into the
// transient engine's accepted-step loop.
//
// The contract is cooperative: nothing is ever killed. Workers poll
// stop_requested() at natural boundaries (the parallel runner before
// claiming an item, the engine at the top of each accepted step) and wind
// down with their partial results intact. That is what lets an interrupted
// batch flush a journal and report "how far it got" instead of losing work.
//
// Three stop sources compose:
//   - request_cancel()  an external stop (the SIGINT/SIGTERM watcher, a
//                       test, a supervising process). Async-signal-safe.
//   - deadline          a steady_clock time point; expiry is observed by
//                       the next stop_requested() poll.
//   - item budget       a cap on *newly started* batch items, consumed by
//                       try_start_item(). Deliberately NOT reported by
//                       stop_requested(): an exhausted budget stops new
//                       items from starting but lets in-flight transients
//                       run to completion, so the set of finished items
//                       stays deterministic.
//
// Thread-safety: request_cancel()/stop_requested()/try_start_item() are
// safe from any thread (and request_cancel() from a signal handler).
// set_deadline()/set_timeout()/set_item_budget() must happen-before the
// workers start polling — configure the context, then launch the batch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace ssnkit::support {

/// Why a job stopped early. kItemBudget is only ever reported by
/// stop_reason() (driver-level accounting); stop_requested() — what the
/// engine polls — reports kCancelled/kDeadlineExpired alone, see above.
enum class StopReason {
  kNone = 0,
  kCancelled,        ///< request_cancel() was called (signal, test, parent)
  kDeadlineExpired,  ///< the monotonic deadline passed
  kItemBudget,       ///< the item budget ran out (no new items started)
};

inline const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadlineExpired: return "deadline-expired";
    case StopReason::kItemBudget: return "item-budget";
  }
  return "unknown";
}

/// The steady_clock time point `seconds` from now, saturating: a deadline
/// beyond the clock's range (including +inf) is time_point::max(), which
/// every caller treats as no deadline; a duration <= 0 (or NaN) is now.
inline std::chrono::steady_clock::time_point deadline_after(double seconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const double ns = seconds * 1e9;
  if (!(ns > 0.0)) return now;
  const std::chrono::nanoseconds headroom = Clock::time_point::max() - now;
  if (!(ns < 0x1p63) || std::int64_t(ns) >= headroom.count())
    return Clock::time_point::max();
  return now + std::chrono::nanoseconds(std::int64_t(ns));
}

class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Trip the cancellation token. Async-signal-safe (a single atomic
  /// store), idempotent, irreversible for the lifetime of the context.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }
  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Absolute monotonic deadline; expiry surfaces via stop_requested().
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_release);
  }
  /// Deadline `seconds` from now; <= 0 is already expired, and one beyond
  /// steady_clock's range is no deadline (see deadline_after).
  void set_timeout(double seconds) { set_deadline(deadline_after(seconds)); }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != kNoDeadline;
  }

  /// The poll: cancellation wins over deadline expiry; budget exhaustion is
  /// intentionally absent (see the header comment). Cheap enough for a
  /// per-timestep poll — one relaxed-ish atomic load, plus one clock read
  /// only when a deadline is set.
  StopReason stop_requested() const {
    if (cancel_requested()) return StopReason::kCancelled;
    const std::int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != kNoDeadline &&
        std::chrono::steady_clock::now().time_since_epoch() >=
            std::chrono::nanoseconds(dl))
      return StopReason::kDeadlineExpired;
    return StopReason::kNone;
  }

  /// Cap on newly started items; negative = unlimited (the default).
  void set_item_budget(long long items) {
    if (items < 0) {
      budget_limited_.store(false, std::memory_order_release);
      return;
    }
    budget_remaining_.store(items, std::memory_order_relaxed);
    budget_limited_.store(true, std::memory_order_release);
  }

  /// Claim the right to start one new batch item. False when the context is
  /// stopped or the budget is spent — the caller must then skip the item
  /// (it is "not run", not "failed"). Items restored from a journal must
  /// not call this: resumed work is free. Const because drivers hold the
  /// context through a const pointer: claiming decrements shared coordination
  /// state (mutable atomics), not the job's configuration.
  bool try_start_item() const {
    if (stop_requested() != StopReason::kNone) return false;
    if (!budget_limited_.load(std::memory_order_acquire)) return true;
    if (budget_remaining_.fetch_sub(1, std::memory_order_acq_rel) > 0)
      return true;
    budget_hit_.store(true, std::memory_order_release);
    return false;
  }

  /// Driver-level verdict after the batch joins: why (if at all) the run
  /// ended early. Unlike stop_requested(), this does report kItemBudget.
  StopReason stop_reason() const {
    const StopReason sr = stop_requested();
    if (sr != StopReason::kNone) return sr;
    if (budget_hit_.load(std::memory_order_acquire))
      return StopReason::kItemBudget;
    return StopReason::kNone;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
  std::atomic<bool> budget_limited_{false};
  mutable std::atomic<long long> budget_remaining_{0};
  mutable std::atomic<bool> budget_hit_{false};
};

/// RAII SIGINT/SIGTERM watcher: while alive, the first signal trips the
/// RunContext's cancellation token (and is recorded for the exit message);
/// a second signal hard-exits with the conventional 128+sig status, so a
/// wedged job can still be killed from the keyboard. Previous handlers are
/// restored on destruction. Only one instance may be alive at a time —
/// the CLI installs it once around each batch command.
class ScopedSignalCancel {
 public:
  explicit ScopedSignalCancel(RunContext& ctx);
  ~ScopedSignalCancel();
  ScopedSignalCancel(const ScopedSignalCancel&) = delete;
  ScopedSignalCancel& operator=(const ScopedSignalCancel&) = delete;

  /// The signal number that tripped the token (0 = none yet). Reset on
  /// every install.
  static int last_signal();
};

}  // namespace ssnkit::support
