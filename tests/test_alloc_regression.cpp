// Steady-state allocation regression for the transient hot path. The
// engine's SolverWorkspace promises zero heap allocations per accepted
// step once the stamp plan, factorization and history buffers exist —
// doubling the number of steps must not meaningfully change the total
// allocation count (growth comes only from the recorded waveform, which
// both runs pre-reserve). A counting global operator new catches any
// per-step Matrix/Vector construction someone reintroduces. It runs on the
// folded bench (7 unknowns) and on an unfolded one, whose stamp pattern
// and stamp tape run to hundreds of entries.
//
// This file overrides the global allocator, so it must stay its own test
// binary (see tests/CMakeLists.txt) and must not be linked with sanitizer
// interceptors' replacement allocators in mind — under ASan the counts
// still move in lockstep, which is all the assertion needs.
#include "circuit/testbench.hpp"
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The deletes stay out of line: inlined into a `new T` expression's cleanup,
// their std::free meets the operator new it pairs with, and GCC reports
// -Wmismatched-new-delete, which -Werror builds turn into an error.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace ssnkit;

/// The folded default bench: 4 identical drivers, 7 unknowns.
circuit::SsnBenchSpec folded_bench() {
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 4;
  return spec;
}

/// 24 drivers, each with its own input delay, so none fold: 76 unknowns,
/// and a stamp pattern and tape of hundreds of entries.
circuit::SsnBenchSpec staggered_bench() {
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 24;
  for (int i = 0; i < spec.n_drivers; ++i)
    spec.stagger.push_back(double(i) * 2e-12);
  return spec;
}

/// Allocations of a fixed-step transient with `steps` accepted points.
std::size_t count_transient_allocs(std::size_t steps,
                                   const circuit::SsnBenchSpec& spec) {
  auto bench = circuit::make_ssn_testbench(spec);

  sim::TransientOptions opts;
  opts.t_stop = 0.5e-9;
  opts.adaptive = false;  // fixed step isolates the per-step cost
  opts.dt_initial = opts.t_stop / double(steps);
  opts.dt_max = opts.dt_initial;

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto run = sim::run_transient_ex(bench.circuit, opts);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(run.ok());
  EXPECT_GE(run.result.point_count(), steps);
  return g_allocs.load(std::memory_order_relaxed);
}

/// Doubling the accepted steps of `spec`'s bench must not add allocations.
void expect_steps_do_not_allocate(const circuit::SsnBenchSpec& spec) {
  const std::size_t small = 200;
  const std::size_t large = 400;

  // Warm-up run absorbs one-time lazy initialization (gtest, locale,
  // element caches) so the two measured runs see identical fixed costs.
  (void)count_transient_allocs(small, spec);

  const std::size_t a_small = count_transient_allocs(small, spec);
  const std::size_t a_large = count_transient_allocs(large, spec);

  // Everything per-run (workspace, pattern, factor, reserves) is identical;
  // the extra `large - small` accepted steps must contribute nothing. The
  // slack absorbs waveform-recording growth if a reserve is ever loosened,
  // while still failing loudly on a per-step allocation (which would add
  // hundreds).
  const std::size_t delta = a_large > a_small ? a_large - a_small : 0;
  EXPECT_LE(delta, 32u) << "per-run allocations: " << a_small << " -> "
                        << a_large << " when doubling accepted steps";
}

TEST(AllocRegression, TransientStepsDoNotAllocate) {
  expect_steps_do_not_allocate(folded_bench());
}

TEST(AllocRegression, UnfoldedTransientStepsDoNotAllocate) {
  expect_steps_do_not_allocate(staggered_bench());
}

TEST(AllocRegression, SecondRunCostsNoMoreThanFirst) {
  // The workspace is per-call, so runs are independent; this guards against
  // accidental global-state growth (e.g. an append-only cache).
  const std::size_t first = count_transient_allocs(200, folded_bench());
  const std::size_t second = count_transient_allocs(200, folded_bench());
  EXPECT_LE(second, first + 8);
}

}  // namespace
