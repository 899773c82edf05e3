// The job lifecycle layer: RunContext semantics, the signal watcher, the
// cancellation-aware batch runner, engine-level stop polling, the checkpoint
// journal, and — the layer's central promise — that a batch interrupted at
// an arbitrary point and resumed from its journal produces bit-identical
// results to an uninterrupted run, at any thread count.
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "analysis/sweeps.hpp"
#include "cli/commands.hpp"
#include "support/atomic_file.hpp"
#include "support/crashclean.hpp"
#include "io/csv.hpp"
#include "support/faultinject.hpp"
#include "support/journal.hpp"
#include "support/parallel.hpp"
#include "support/runcontext.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ssnkit;
using support::RunContext;
using support::StopReason;

// --- RunContext -------------------------------------------------------------

TEST(Lifecycle, RunContextDefaultsToNoStop) {
  RunContext ctx;
  EXPECT_FALSE(ctx.cancel_requested());
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_EQ(ctx.stop_requested(), StopReason::kNone);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
  EXPECT_TRUE(ctx.try_start_item());  // unlimited budget by default
}

TEST(Lifecycle, CancelIsStickyAndWinsOverDeadline) {
  RunContext ctx;
  ctx.set_timeout(-1.0);  // already expired
  EXPECT_EQ(ctx.stop_requested(), StopReason::kDeadlineExpired);
  ctx.request_cancel();
  EXPECT_EQ(ctx.stop_requested(), StopReason::kCancelled);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
  EXPECT_FALSE(ctx.try_start_item());
}

TEST(Lifecycle, DeadlineExpiryIsObservedByPolls) {
  RunContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now() +
                   std::chrono::hours(24));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.stop_requested(), StopReason::kNone);
  ctx.set_timeout(0.0);
  EXPECT_EQ(ctx.stop_requested(), StopReason::kDeadlineExpired);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadlineExpired);
}

TEST(Lifecycle, TimeoutBeyondTheClockRangeIsNoDeadline) {
  // 1e10 s is 1e19 ns, past steady_clock's int64 nanosecond range. Such a
  // deadline is no deadline, never one that overflowed into the past.
  RunContext ctx;
  ctx.set_timeout(1e10);
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_EQ(ctx.stop_requested(), StopReason::kNone);
  ctx.set_timeout(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_EQ(ctx.stop_requested(), StopReason::kNone);
  ctx.set_timeout(1e9);  // about 32 years: in range, a real deadline
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.stop_requested(), StopReason::kNone);
}

TEST(Lifecycle, ItemBudgetStopsNewItemsButNotThePoll) {
  RunContext ctx;
  ctx.set_item_budget(2);
  EXPECT_TRUE(ctx.try_start_item());
  EXPECT_TRUE(ctx.try_start_item());
  EXPECT_FALSE(ctx.try_start_item());
  // Budget exhaustion is a driver-level verdict, not an engine stop: an
  // in-flight transient must be allowed to finish.
  EXPECT_EQ(ctx.stop_requested(), StopReason::kNone);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kItemBudget);
}

TEST(Lifecycle, NegativeBudgetMeansUnlimited) {
  RunContext ctx;
  ctx.set_item_budget(-1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctx.try_start_item());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
}

TEST(Lifecycle, TryStartItemIsThreadSafeExactClaimCount) {
  RunContext ctx;
  ctx.set_item_budget(50);
  std::atomic<int> claimed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < 100; ++i)
        if (ctx.try_start_item()) claimed.fetch_add(1);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(claimed.load(), 50);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kItemBudget);
}

// --- ScopedSignalCancel -----------------------------------------------------

TEST(Lifecycle, SignalWatcherTripsTokenAndRecordsSignal) {
  RunContext ctx;
  {
    support::ScopedSignalCancel watcher(ctx);
    EXPECT_EQ(support::ScopedSignalCancel::last_signal(), 0);
    std::raise(SIGTERM);
    EXPECT_TRUE(ctx.cancel_requested());
    EXPECT_EQ(support::ScopedSignalCancel::last_signal(), SIGTERM);
  }
  // After the watcher is gone the default disposition is restored; a second
  // context is not affected by the first one's trip.
  RunContext ctx2;
  support::ScopedSignalCancel watcher2(ctx2);
  EXPECT_EQ(support::ScopedSignalCancel::last_signal(), 0);
  EXPECT_FALSE(ctx2.cancel_requested());
}

// --- parallel runner --------------------------------------------------------

TEST(Lifecycle, ParallelForIndexReportsCompletionWithoutContext) {
  const auto status = support::parallel_for_index(4, 32, [](std::size_t) {});
  EXPECT_EQ(status.completed, 32u);
  EXPECT_FALSE(status.stopped);
}

TEST(Lifecycle, SerialRunnerDrainsOnCancelMidBatch) {
  RunContext ctx;
  std::atomic<std::size_t> ran{0};
  const auto status = support::parallel_for_index(
      1, 10,
      [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 3) ctx.request_cancel();
      },
      &ctx);
  // Items 0..3 ran; the poll before item 4 saw the trip.
  EXPECT_EQ(ran.load(), 4u);
  EXPECT_EQ(status.completed, 4u);
  EXPECT_TRUE(status.stopped);
}

TEST(Lifecycle, PoolRunnerDrainsOnCancel) {
  RunContext ctx;
  std::atomic<std::size_t> ran{0};
  const auto status = support::parallel_for_index(
      4, 64,
      [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 0) ctx.request_cancel();
      },
      &ctx);
  EXPECT_TRUE(status.stopped);
  EXPECT_EQ(status.completed, ran.load());
  EXPECT_LT(status.completed, 64u);  // the drain skipped unclaimed items
}

TEST(Lifecycle, ExceptionOutranksCancellation) {
  RunContext ctx;
  EXPECT_THROW(
      support::parallel_for_index(
          2, 16,
          [&](std::size_t i) {
            if (i == 1) {
              ctx.request_cancel();
              throw std::logic_error("body failure");
            }
          },
          &ctx),
      std::logic_error);
}

TEST(Lifecycle, PreCancelledContextRunsNothing) {
  RunContext ctx;
  ctx.request_cancel();
  std::atomic<std::size_t> ran{0};
  const auto status = support::parallel_for_index(
      4, 16, [&](std::size_t) { ran.fetch_add(1); }, &ctx);
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(status.completed, 0u);
  EXPECT_TRUE(status.stopped);
}

// --- engine-level stop polling ----------------------------------------------

circuit::Circuit rc_circuit() {
  circuit::Circuit ckt;
  const circuit::NodeId in = ckt.node("in");
  const circuit::NodeId out = ckt.node("out");
  ckt.add_vsource("V1", in, circuit::kGround,
                  waveform::Pwl{{{0.0, 0.0}, {1e-12, 1.0}}});
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, circuit::kGround, 1e-12);
  return ckt;
}

TEST(Lifecycle, EngineStopsWithTypedCancelledErrorAndPartialWaveform) {
  circuit::Circuit ckt = rc_circuit();
  RunContext ctx;
  ctx.request_cancel();
  sim::TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.run_ctx = &ctx;
  const sim::TransientRun run = sim::run_transient_ex(ckt, opts);
  ASSERT_TRUE(run.error.has_value());
  EXPECT_EQ(run.error->kind(), support::SolverErrorKind::kCancelled);
  EXPECT_FALSE(run.error->retryable());
  EXPECT_TRUE(support::is_stop_kind(run.error->kind()));
}

TEST(Lifecycle, EngineStopsOnExpiredDeadline) {
  circuit::Circuit ckt = rc_circuit();
  RunContext ctx;
  ctx.set_timeout(0.0);
  sim::TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.run_ctx = &ctx;
  const sim::TransientRun run = sim::run_transient_ex(ckt, opts);
  ASSERT_TRUE(run.error.has_value());
  EXPECT_EQ(run.error->kind(), support::SolverErrorKind::kDeadlineExpired);
}

TEST(Lifecycle, EngineWithoutContextIsUnaffected) {
  circuit::Circuit ckt = rc_circuit();
  sim::TransientOptions opts;
  opts.t_stop = 4e-9;
  const sim::TransientRun run = sim::run_transient_ex(ckt, opts);
  EXPECT_FALSE(run.error.has_value());
  EXPECT_GT(run.result.point_count(), 0u);
}

TEST(Lifecycle, StepBudgetExhaustionKeepsPartialWaveform) {
  circuit::Circuit ckt = rc_circuit();
  sim::TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.adaptive = false;
  opts.dt_initial = 1e-12;
  opts.max_steps = 5;
  const sim::TransientRun run = sim::run_transient_ex(ckt, opts);
  ASSERT_TRUE(run.error.has_value());
  EXPECT_EQ(run.error->kind(), support::SolverErrorKind::kStepBudgetExhausted);
  // The accepted prefix is preserved — a partial result, not a truncation.
  EXPECT_GT(run.result.point_count(), 0u);
  EXPECT_LT(run.result.times().back(), opts.t_stop);
}

TEST(Lifecycle, StoppedSampleIsNotDegradedToAnalytic) {
  // An interrupted sample must surface as failed/not-run, never silently
  // fall back to the closed forms: the resume contract needs it re-run.
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 2;
  RunContext ctx;
  ctx.request_cancel();
  analysis::MeasureOptions mopts;
  mopts.transient.run_ctx = &ctx;
  core::SsnScenario scenario;
  scenario.n_drivers = 2;
  scenario.inductance = 5e-9;
  scenario.vdd = 1.8;
  scenario.slope = 1.8e10;
  scenario.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  const auto rm = analysis::measure_ssn(spec, mopts, &scenario);
  EXPECT_EQ(rm.fidelity, sim::Fidelity::kFailed);
  ASSERT_TRUE(rm.error.has_value());
  EXPECT_EQ(rm.error->kind(), support::SolverErrorKind::kCancelled);
  // A stop is not retryable: the ladder ends after its first rung.
  EXPECT_EQ(rm.attempts.size(), 1u);
}

// --- journal primitives -----------------------------------------------------

TEST(Lifecycle, DoubleBitsRoundTripIsExact) {
  for (const double v : {0.0, -0.0, 1.0, -1.5, 0.1, 1e-300,
                         std::numeric_limits<double>::max()}) {
    EXPECT_EQ(support::double_bits(support::bits_double(
                  support::double_bits(v))),
              support::double_bits(v));
  }
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(support::bits_double(support::double_bits(nan))));
  // -0.0 and 0.0 have different bit patterns; the journal preserves that.
  EXPECT_NE(support::double_bits(-0.0), support::double_bits(0.0));
}

TEST(Lifecycle, HexU64RoundTripAndStrictParse) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeef},
        std::uint64_t{0xffffffffffffffffULL}}) {
    const std::string h = support::hex_u64(v);
    EXPECT_EQ(h.size(), 16u);
    std::uint64_t back = 1;
    ASSERT_TRUE(support::parse_hex_u64(h, back));
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(support::parse_hex_u64("", out));
  EXPECT_FALSE(support::parse_hex_u64("123", out));              // short
  EXPECT_FALSE(support::parse_hex_u64("00000000000000zz", out)); // non-hex
  EXPECT_FALSE(support::parse_hex_u64(" 000000000000000", out)); // space
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(Lifecycle, JournalRecordLoadRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.txt");
  std::remove(path.c_str());
  {
    support::BatchJournal j(path, "mc-sim", 0xabcdef0123456789ULL, 8);
    j.record(3, {2, support::double_bits(0.25), -1});
    j.record(0, {0, support::double_bits(-0.0), 4});
    EXPECT_EQ(j.size(), 2u);
  }
  const auto loaded = support::BatchJournal::load(path);
  EXPECT_EQ(loaded.header.kind, "mc-sim");
  EXPECT_EQ(loaded.header.config_hash, 0xabcdef0123456789ULL);
  EXPECT_EQ(loaded.header.total, 8u);
  ASSERT_EQ(loaded.items.size(), 2u);
  EXPECT_EQ(loaded.items.at(3).fidelity, 2);
  EXPECT_EQ(loaded.items.at(3).v_bits, support::double_bits(0.25));
  EXPECT_EQ(loaded.items.at(3).error_kind, -1);
  EXPECT_EQ(loaded.items.at(0).v_bits, support::double_bits(-0.0));
  EXPECT_EQ(loaded.items.at(0).error_kind, 4);
  support::BatchJournal::validate_against(loaded, "mc-sim",
                                          0xabcdef0123456789ULL, 8, path);
  std::remove(path.c_str());
}

TEST(Lifecycle, JournalLoadRejectsMissingAndMalformed) {
  using support::BatchJournal;
  using support::JournalError;
  try {
    BatchJournal::load(temp_path("no_such_journal.txt"));
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.kind(), JournalError::Kind::kOpenFailed);
  }
  const std::string path = temp_path("bad_journal.txt");
  for (const char* body : {
           "not a journal\n",
           "ssnkit-journal v2\nkind mc-sim\nconfig 0000000000000000\ntotal 1\n",
           "ssnkit-journal v1\nkind mc-sim\nconfig zz\ntotal 1\n",
           "ssnkit-journal v1\nkind mc-sim\nconfig 0000000000000000\n"
           "total 1\nitem 0 -2 0000000000000000 -1\n",  // negative fidelity
           "ssnkit-journal v1\nkind mc-sim\nconfig 0000000000000000\n"
           "total 1\nitem 5 0 0000000000000000 -1\n",  // index >= total
       }) {
    support::write_file_atomic(path, body);
    try {
      BatchJournal::load(path);
      FAIL() << "expected JournalError for: " << body;
    } catch (const JournalError& e) {
      EXPECT_EQ(e.kind(), JournalError::Kind::kBadFormat) << body;
    }
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, JournalValidateRejectsOtherJobs) {
  using support::BatchJournal;
  using support::JournalError;
  const std::string path = temp_path("mismatch_journal.txt");
  std::remove(path.c_str());
  { BatchJournal j(path, "mc-sim", 7, 4); j.record(0, {0, 0, -1}); }
  const auto loaded = BatchJournal::load(path);
  const auto expect_mismatch = [&](const std::string& kind,
                                   std::uint64_t hash, std::size_t total) {
    try {
      BatchJournal::validate_against(loaded, kind, hash, total, path);
      FAIL() << "expected kMismatch";
    } catch (const JournalError& e) {
      EXPECT_EQ(e.kind(), JournalError::Kind::kMismatch);
    }
  };
  expect_mismatch("sweep-n", 7, 4);  // kind differs
  expect_mismatch("mc-sim", 8, 4);   // config differs
  expect_mismatch("mc-sim", 7, 5);   // total differs
  std::remove(path.c_str());
}

TEST(Lifecycle, DriverRejectsJournalWithOutOfRangeFidelity) {
  // The support-layer loader is sim-agnostic (fidelity is just a
  // non-negative int there); the driver's decode enforces the enum range.
  const std::string path = temp_path("oor_fidelity_journal.txt");
  support::write_file_atomic(
      path,
      "ssnkit-journal v1\nkind mc-sim\nconfig 0000000000000000\n"
      "total 2\nitem 0 99 0000000000000000 -1\n");
  const auto loaded = support::BatchJournal::load(path);
  const auto cal = analysis::calibrate(process::tech_180nm());
  analysis::SimMonteCarloOptions opts;
  opts.samples = 2;
  opts.batch.resume = &loaded.items;
  EXPECT_THROW(analysis::monte_carlo_vmax_sim(cal, process::package_pga(), 4,
                                              0.1e-9, true, opts),
               std::invalid_argument);
  std::remove(path.c_str());
}

// --- write_file_atomic ------------------------------------------------------

TEST(Lifecycle, AtomicWriteReplacesContentCompletely) {
  const std::string path = temp_path("atomic_write.txt");
  support::write_file_atomic(path, "first version\n");
  support::write_file_atomic(path, "second\n");
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "second\n");
  std::remove(path.c_str());
}

TEST(Lifecycle, AtomicWriteFailureLeavesNoTemporary) {
  EXPECT_THROW(support::write_file_atomic("/no/such/dir/x.txt", "data"),
               support::IoError);
}

// --- interrupted + resumed Monte Carlo is bit-identical ---------------------

analysis::SimMonteCarloOptions mc_base_options() {
  analysis::SimMonteCarloOptions o;
  o.samples = 6;
  o.seed = 777;
  return o;
}

void expect_outcomes_identical(const analysis::SimMonteCarloResult& a,
                               const analysis::SimMonteCarloResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].index, b.samples[i].index);
    EXPECT_EQ(a.samples[i].l_factor, b.samples[i].l_factor);
    EXPECT_EQ(a.samples[i].c_factor, b.samples[i].c_factor);
    EXPECT_EQ(a.samples[i].rise_factor, b.samples[i].rise_factor);
    EXPECT_EQ(a.samples[i].width_factor, b.samples[i].width_factor);
    EXPECT_EQ(a.samples[i].v_max, b.samples[i].v_max) << "sample " << i;
    EXPECT_EQ(a.samples[i].fidelity, b.samples[i].fidelity);
    EXPECT_EQ(a.samples[i].completed, b.samples[i].completed);
  }
  EXPECT_EQ(a.surviving, b.surviving);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.summary.total, b.summary.total);
  EXPECT_EQ(a.summary.by_fidelity, b.summary.by_fidelity);
  EXPECT_EQ(a.summary.by_error, b.summary.by_error);
  EXPECT_EQ(a.summary.notes, b.summary.notes);
  EXPECT_EQ(a.summary.not_run, b.summary.not_run);
  EXPECT_EQ(a.summary.to_string(), b.summary.to_string());
}

TEST(Resume, InterruptedMonteCarloResumesBitIdenticalAtAnyThreadCount) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  const auto pkg = process::package_pga();
  const auto opts = mc_base_options();

  // The uninterrupted reference, serial.
  const auto clean =
      analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, opts);
  ASSERT_EQ(clean.completed, std::size_t(opts.samples));
  ASSERT_EQ(clean.stop, StopReason::kNone);

  std::mt19937 rng(20260806u);
  for (const int threads : {1, 4, 8}) {
    // Interrupt at a random cut: budget of k samples, journal everything.
    const int k = 1 + int(rng() % unsigned(opts.samples - 1));
    const std::string path = temp_path(
        "resume_t" + std::to_string(threads) + ".txt");
    std::remove(path.c_str());

    auto part_opts = opts;
    part_opts.batch.threads = threads;
    RunContext budget_ctx;
    budget_ctx.set_item_budget(k);
    part_opts.batch.run_ctx = &budget_ctx;
    support::BatchJournal journal(path, "mc-sim", 42, std::size_t(opts.samples));
    part_opts.batch.journal = &journal;
    const auto partial =
        analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, part_opts);
    ASSERT_EQ(partial.completed, std::size_t(k)) << "threads " << threads;
    ASSERT_EQ(partial.stop, StopReason::kItemBudget);
    ASSERT_EQ(partial.summary.not_run, std::size_t(opts.samples - k));

    // Resume: load the journal, restore its items, run the rest.
    const auto loaded = support::BatchJournal::load(path);
    support::BatchJournal::validate_against(loaded, "mc-sim", 42,
                                            std::size_t(opts.samples), path);
    ASSERT_EQ(loaded.items.size(), std::size_t(k));
    auto resume_opts = opts;
    resume_opts.batch.threads = threads;
    const std::string path2 = path + ".resumed";
    std::remove(path2.c_str());
    support::BatchJournal journal2(path2, "mc-sim", 42,
                                   std::size_t(opts.samples));
    resume_opts.batch.journal = &journal2;
    resume_opts.batch.resume = &loaded.items;
    const auto resumed =
        analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, resume_opts);

    ASSERT_EQ(resumed.stop, StopReason::kNone) << "threads " << threads;
    EXPECT_EQ(resumed.resumed, std::size_t(k));
    expect_outcomes_identical(clean, resumed);
    // The completed journal must equal a clean run's journal: same records
    // for every sample.
    const auto final_items = support::BatchJournal::load(path2).items;
    EXPECT_EQ(final_items.size(), std::size_t(opts.samples));
    std::remove(path.c_str());
    std::remove(path2.c_str());
  }
}

TEST(Resume, MidFlightInterruptDiscardsPartialSamplesForDeterminism) {
  // Cancel *during* sample k's transient (not between samples): the
  // interrupted sample must come back not-run and unjournaled, so a resume
  // re-runs it and still matches the clean run bit for bit.
  const auto cal = analysis::calibrate(process::tech_180nm());
  const auto pkg = process::package_pga();
  auto opts = mc_base_options();
  opts.samples = 4;

  const auto clean =
      analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, opts);

  RunContext ctx;
  auto part_opts = opts;
  part_opts.batch.run_ctx = &ctx;
  // Trip the token from a watchdog thread while the serial batch is mid-
  // sample; whichever sample is in flight is discarded.
  std::thread watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.request_cancel();
  });
  const std::string path = temp_path("midflight_journal.txt");
  std::remove(path.c_str());
  support::BatchJournal journal(path, "mc-sim", 9, std::size_t(opts.samples));
  part_opts.batch.journal = &journal;
  const auto partial =
      analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, part_opts);
  watchdog.join();

  // Every journaled sample matches the clean run exactly; interrupted or
  // unstarted samples are simply absent. On a loaded machine the cancel can
  // land before sample 0 finishes, in which case nothing was journaled and
  // the file was never created — resuming from an empty map is the contract.
  support::BatchJournal::Loaded loaded;
  if (partial.completed > 0) loaded = support::BatchJournal::load(path);
  EXPECT_EQ(loaded.items.size(), partial.completed);
  for (const auto& [idx, rec] : loaded.items) {
    EXPECT_EQ(rec.v_bits, support::double_bits(clean.samples[idx].v_max))
        << "sample " << idx;
    EXPECT_EQ(rec.fidelity, int(clean.samples[idx].fidelity));
  }
  if (partial.completed < std::size_t(opts.samples)) {
    EXPECT_EQ(partial.stop, StopReason::kCancelled);
    // And the resumed run reproduces the clean result.
    auto resume_opts = opts;
    resume_opts.batch.resume = &loaded.items;
    const auto resumed =
        analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, resume_opts);
    expect_outcomes_identical(clean, resumed);
  }
  std::remove(path.c_str());
}

TEST(Resume, FaultInjectedSampleOutcomeSurvivesResume) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "fault injection compiled out";
  // A sample that failed (or recovered) before the interrupt must restore
  // from the journal with its exact degraded outcome, not be re-promoted.
  auto& injector = support::FaultInjector::instance();
  injector.disarm_all();
  support::FaultPlan plan;
  plan.fire_on_nth = 1;
  plan.only_sample = 1;
  injector.arm(support::FaultKind::kNewtonDivergence, plan);

  const auto cal = analysis::calibrate(process::tech_180nm());
  const auto pkg = process::package_pga();
  auto opts = mc_base_options();
  opts.samples = 4;

  const auto clean =
      analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, opts);

  const std::string path = temp_path("fi_resume_journal.txt");
  std::remove(path.c_str());
  auto part_opts = opts;
  RunContext ctx;
  ctx.set_item_budget(3);  // past the faulted sample
  part_opts.batch.run_ctx = &ctx;
  support::BatchJournal journal(path, "mc-sim", 11, std::size_t(opts.samples));
  part_opts.batch.journal = &journal;
  const auto partial =
      analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, part_opts);
  ASSERT_EQ(partial.completed, 3u);

  const auto loaded = support::BatchJournal::load(path);
  auto resume_opts = opts;
  resume_opts.batch.resume = &loaded.items;
  const auto resumed =
      analysis::monte_carlo_vmax_sim(cal, pkg, 4, 0.1e-9, true, resume_opts);
  injector.disarm_all();
  expect_outcomes_identical(clean, resumed);
}

// --- sweep resume ------------------------------------------------------------

TEST(Resume, DriverSweepResumesBitIdentical) {
  analysis::DriverSweepConfig base;
  base.driver_counts = {1, 2, 4, 8};

  const auto clean = analysis::run_driver_sweep(base);
  ASSERT_EQ(clean.summary.not_run, 0u);

  auto part = base;
  RunContext ctx;
  ctx.set_item_budget(2);
  part.batch.run_ctx = &ctx;
  const std::string path = temp_path("sweep_resume_journal.txt");
  std::remove(path.c_str());
  support::BatchJournal journal(path, "sweep-n", 3, base.driver_counts.size());
  part.batch.journal = &journal;
  const auto partial = analysis::run_driver_sweep(part);
  EXPECT_EQ(partial.summary.not_run, 2u);
  EXPECT_EQ(partial.summary.stop, StopReason::kItemBudget);
  EXPECT_EQ(partial.rows.size(), 2u);

  const auto loaded = support::BatchJournal::load(path);
  ASSERT_EQ(loaded.items.size(), 2u);
  auto res = base;
  res.batch.resume = &loaded.items;
  const auto resumed = analysis::run_driver_sweep(res);
  EXPECT_EQ(resumed.resumed, 2u);
  ASSERT_EQ(resumed.rows.size(), clean.rows.size());
  for (std::size_t i = 0; i < clean.rows.size(); ++i) {
    EXPECT_EQ(resumed.rows[i].n, clean.rows[i].n);
    EXPECT_EQ(resumed.rows[i].sim, clean.rows[i].sim) << "row " << i;
    EXPECT_EQ(resumed.rows[i].this_work, clean.rows[i].this_work);
    EXPECT_EQ(resumed.rows[i].err_this, clean.rows[i].err_this);
    EXPECT_EQ(resumed.rows[i].fidelity, clean.rows[i].fidelity);
  }
  EXPECT_EQ(resumed.summary.notes, clean.summary.notes);
  std::remove(path.c_str());
}

TEST(Resume, SweepRestoresResidualDegradedRecord) {
  // Sweeps and Monte Carlo share one journal decoder, so a sweep point that
  // failed with a degraded residual restores like any other outcome instead
  // of being rejected as out of range.
  analysis::DriverSweepConfig config;
  config.driver_counts = {1, 2};
  const std::map<std::size_t, support::PointRecord> resume = {
      {0,
       {int(sim::Fidelity::kFailed), support::double_bits(0.0),
        int(support::SolverErrorKind::kResidualDegraded),
        int(verify::Verdict::kDegraded)}}};
  config.batch.resume = &resume;
  const auto result = analysis::run_driver_sweep(config);
  EXPECT_EQ(result.resumed, 1u);
  EXPECT_EQ(result.summary.failed, 1u);
  EXPECT_EQ(result.summary.by_error.at("residual-degraded"), 1u);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].n, 2);
}

// --- CLI end-to-end ----------------------------------------------------------

TEST(Resume, CliInterruptThenResumeMatchesCleanRun) {
  const std::string j_clean = temp_path("cli_clean_journal.txt");
  const std::string j_part = temp_path("cli_part_journal.txt");
  const std::string csv_clean = temp_path("cli_clean.csv");
  const std::string csv_resumed = temp_path("cli_resumed.csv");
  for (const auto& p : {j_clean, j_part, csv_clean, csv_resumed})
    std::remove(p.c_str());

  const auto slurp = [](const std::string& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  std::ostringstream os, es;
  int rc = cli::run_cli({"mc", "--sim", "--samples", "4", "--journal",
                         j_clean, "--out", csv_clean},
                        os, es);
  EXPECT_EQ(rc, 0);

  os.str({});
  rc = cli::run_cli({"mc", "--sim", "--samples", "4", "--max-samples", "2",
                     "--journal", j_part},
                    os, es);
  EXPECT_EQ(rc, cli::kExitInterrupted);
  EXPECT_NE(os.str().find("interrupted (item-budget)"), std::string::npos);
  EXPECT_NE(os.str().find("--resume"), std::string::npos);

  os.str({});
  rc = cli::run_cli({"mc", "--sim", "--samples", "4", "--resume", j_part,
                     "--out", csv_resumed},
                    os, es);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(os.str().find("resumed 2 samples"), std::string::npos);

  EXPECT_EQ(slurp(csv_clean), slurp(csv_resumed));
  EXPECT_EQ(slurp(j_clean), slurp(j_part));  // resume completed the journal

  for (const auto& p : {j_clean, j_part, csv_clean, csv_resumed})
    std::remove(p.c_str());
}

TEST(Resume, CliExpiredDeadlineExitsInterrupted) {
  std::ostringstream os, es;
  const int rc = cli::run_cli(
      {"mc", "--sim", "--samples", "2", "--deadline", "0"}, os, es);
  EXPECT_EQ(rc, cli::kExitInterrupted);
  EXPECT_NE(os.str().find("deadline-expired"), std::string::npos);
}

TEST(Resume, CliDeadlineBeyondTheClockRangeRunsToCompletion) {
  std::ostringstream os, es;
  const int rc = cli::run_cli(
      {"mc", "--samples", "200", "--deadline", "1e10"}, os, es);
  EXPECT_EQ(rc, 0) << es.str();
  EXPECT_EQ(os.str().find("interrupted"), std::string::npos) << os.str();
}

TEST(Resume, CliRejectsResumeForDifferentJob) {
  const std::string path = temp_path("cli_wrong_journal.txt");
  std::remove(path.c_str());
  std::ostringstream os, es;
  int rc = cli::run_cli({"mc", "--sim", "--samples", "4", "--journal", path},
                        os, es);
  ASSERT_EQ(rc, 0);
  // Different sample count => different config hash and total.
  std::ostringstream os2, es2;
  rc = cli::run_cli({"mc", "--sim", "--samples", "5", "--resume", path},
                    os2, es2);
  EXPECT_EQ(rc, 1);
  std::remove(path.c_str());
}

// --- torn-record tolerance ---------------------------------------------------

TEST(Lifecycle, JournalToleratesTornTrailingRecord) {
  // A crash mid-record loses the tail of the last line along with its
  // newline; the loader must keep every intact record, warn (SSN-W067), and
  // let the resume proceed — the torn item simply re-runs.
  const std::string path = temp_path("torn_journal.txt");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << "ssnkit-journal v1\nkind mc-sim\nconfig 0000000000000000\n"
         "total 4\nitem 0 1 3fd0000000000000 -1\n"
         "item 1 1 3fe00000";  // cut mid-field, no trailing newline
  const auto loaded = support::BatchJournal::load(path);
  EXPECT_EQ(loaded.items.size(), 1u);
  EXPECT_EQ(loaded.items.count(0), 1u);
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find("SSN-W067"), std::string::npos)
      << loaded.warnings[0];
  std::remove(path.c_str());
}

TEST(Lifecycle, JournalStillRejectsMalformedRecordWithNewline) {
  // The torn-record signature is "last line AND no final newline"; a
  // malformed record that *is* newline-terminated was written whole and is
  // real corruption, which must keep aborting the resume.
  const std::string path = temp_path("corrupt_not_torn_journal.txt");
  support::write_file_atomic(
      path,
      "ssnkit-journal v1\nkind mc-sim\nconfig 0000000000000000\n"
      "total 4\nitem 0 1 3fe00000 garbage extra\n");
  EXPECT_THROW(support::BatchJournal::load(path), support::JournalError);
  std::remove(path.c_str());
}

// --- crash-unlink registry ---------------------------------------------------

TEST(Lifecycle, CrashUnlinkRegistryUnlinksRegisteredPaths) {
  const std::string keep = temp_path("crashclean_keep");
  const std::string doomed = temp_path("crashclean_doomed");
  support::write_file_atomic(keep, "keep\n");
  support::write_file_atomic(doomed, "doomed\n");
  const int slot = support::crash_unlink_register(doomed.c_str());
  ASSERT_GE(slot, 0);
  {
    // Registered then unregistered (the normal RAII path): must survive.
    support::ScopedCrashUnlink scoped(keep.c_str());
    EXPECT_TRUE(scoped.covered());
  }
  support::crash_unlink_all();
  EXPECT_TRUE(std::ifstream(keep).good()) << "unregistered path was unlinked";
  EXPECT_FALSE(std::ifstream(doomed).good()) << "registered path survived";
  support::crash_unlink_unregister(slot);
  std::remove(keep.c_str());
}

TEST(Lifecycle, CrashUnlinkRegistryFailsSoftWhenFull) {
  // Fill every slot; the next registration must return -1 (losing crash
  // coverage, never correctness) and unregister(-1) must be a no-op.
  std::vector<int> slots;
  for (int i = 0; i < support::kCrashUnlinkSlots; ++i) {
    const int s = support::crash_unlink_register("/nonexistent/fill");
    if (s < 0) break;  // earlier tests may hold a slot or two
    slots.push_back(s);
  }
  EXPECT_EQ(support::crash_unlink_register("/nonexistent/overflow"), -1);
  support::crash_unlink_unregister(-1);
  for (const int s : slots) support::crash_unlink_unregister(s);
  // Slots are reusable after release.
  const int again = support::crash_unlink_register("/nonexistent/again");
  EXPECT_GE(again, 0);
  support::crash_unlink_unregister(again);
}

}  // namespace
