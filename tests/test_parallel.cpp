// The deterministic batch runner: resolve_threads policy, the fork-join
// dispatch of parallel_for_index, exception propagation, and its serial
// inline path. The bit-identical serial-vs-parallel guarantees of the
// analysis layer are covered in test_parallel_equivalence.cpp.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using ssnkit::support::parallel_for_index;
using ssnkit::support::resolve_threads;

TEST(ResolveThreads, ExplicitCountIsHonored) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(64), 64);
  // Clamped above to keep a typo from spawning thousands of threads.
  EXPECT_EQ(resolve_threads(100000), 64);
}

TEST(ResolveThreads, AutoIsPositiveAndBounded) {
  for (int req : {0, -1, -100}) {
    const int n = resolve_threads(req);
    EXPECT_GE(n, 1) << "requested " << req;
    EXPECT_LE(n, 16) << "requested " << req;
  }
}

TEST(ParallelForIndex, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  const auto status =
      parallel_for_index(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(status.completed, hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForIndex, EmptyBatchIsANoOp) {
  bool ran = false;
  const auto status =
      parallel_for_index(4, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(status.completed, 0u);
}

TEST(ParallelForIndex, PropagatesFirstException) {
  EXPECT_THROW(parallel_for_index(4, 50,
                                  [&](std::size_t i) {
                                    if (i == 7)
                                      throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
}

TEST(ParallelForIndex, StopRaisedByTheLastItemSkipsNothing) {
  // The last index is claimed only after every other one, so a stop that
  // its body raises skips no item: the batch completed and is not reported
  // as stopped, on the serial path and the threaded one alike.
  for (const int threads : {1, 4}) {
    ssnkit::support::RunContext ctx;
    const auto status = parallel_for_index(
        threads, 8,
        [&](std::size_t i) {
          if (i == 7) ctx.request_cancel();
        },
        &ctx);
    EXPECT_EQ(status.completed, 8u) << threads << " threads";
    EXPECT_FALSE(status.stopped) << threads << " threads";
  }
}

TEST(ParallelForIndex, SerialAndParallelComputeSameSlots) {
  const std::size_t n = 257;
  std::vector<double> serial(n), parallel(n);
  const auto body = [](std::size_t i) { return double(i) * 1.5 + 1.0; };
  parallel_for_index(1, n, [&](std::size_t i) { serial[i] = body(i); });
  parallel_for_index(4, n, [&](std::size_t i) { parallel[i] = body(i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForIndex, SingleItemRunsInline) {
  // threads <= 1 or count <= 1 must not spawn; observable via the body
  // running on the calling thread (thread-id equality).
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  parallel_for_index(8, 1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
  parallel_for_index(1, 1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ParallelForIndex, SerialPathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_index(1, 5,
                         [](std::size_t i) {
                           if (i == 3) throw std::invalid_argument("bad");
                         }),
      std::invalid_argument);
}

TEST(ParallelForIndex, ParallelSumMatchesSerial) {
  const std::size_t n = 1000;
  std::vector<long> terms(n, 0);
  parallel_for_index(4, n, [&](std::size_t i) { terms[i] = long(i) * long(i); });
  long want = 0;
  for (std::size_t i = 0; i < n; ++i) want += long(i) * long(i);
  EXPECT_EQ(std::accumulate(terms.begin(), terms.end(), 0L), want);
}

}  // namespace
