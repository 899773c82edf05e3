#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ssnkit::support {

int resolve_threads(int requested) {
  if (requested > 0) return std::min(requested, 64);
  const unsigned hw = std::thread::hardware_concurrency();
  return int(std::clamp(hw == 0 ? 1u : hw, 1u, 16u));
}

BatchStatus parallel_for_index(int threads, std::size_t count,
                               const std::function<void(std::size_t)>& body,
                               const RunContext* ctx) {
  std::atomic<std::size_t> next{0};       // next unclaimed index
  std::atomic<std::size_t> completed{0};  // bodies run to completion
  std::atomic<bool> stopped{false};       // a RunContext stop drained it
  std::mutex error_mu;
  std::exception_ptr error;  // first body exception; guarded by error_mu
  const auto work = [&] {
    for (;;) {
      // Cooperative cancellation: poll before claiming, so a stop drains
      // the batch (in-flight items finish, unclaimed items stay unclaimed)
      // without being mistaken for a crash. A stop that skipped nothing
      // (every item already claimed) does not count as one.
      if (ctx != nullptr && ctx->stop_requested() != StopReason::kNone) {
        if (next.exchange(count, std::memory_order_relaxed) < count)
          stopped.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
        completed.fetch_add(1, std::memory_order_relaxed);
        // Not a swallow: the exception is stored and rethrown on the
        // caller's thread after the join.
      } catch (...) {  // ssnlint-ignore(SSN-L005)
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        // Drain the cursor so siblings stop claiming new items; everyone
        // still finishes the item they are on.
        next.store(count, std::memory_order_relaxed);
      }
    }
  };
  const std::size_t workers =
      std::min(std::size_t(resolve_threads(threads)), count);
  std::vector<std::thread> helpers;
  helpers.reserve(workers);
  try {
    for (std::size_t k = 1; k < workers; ++k) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Out of threads: the helpers that started and the caller still run
    // every item, and no result depends on how many ran them.
  }
  work();
  for (std::thread& t : helpers) t.join();
  // An exception outranks a concurrent cancellation: the caller must see
  // the crash even if the token also tripped while draining.
  if (error) std::rethrow_exception(error);
  return {completed.load(std::memory_order_relaxed),
          stopped.load(std::memory_order_relaxed)};
}

}  // namespace ssnkit::support
