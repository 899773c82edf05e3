// The batch runner's core guarantee: serial (threads = 1) and parallel
// (threads > 1) execution of every analysis batch produce bit-identical
// results. Variation factors are drawn up front in serial order, each
// sample/point writes only its index-addressed slot, and order-dependent
// bookkeeping (summaries, survivor statistics) is replayed sequentially
// after the join — so EXPECT_EQ on doubles is the correct assertion here,
// not EXPECT_NEAR.
#include "analysis/montecarlo.hpp"
#include "analysis/sweeps.hpp"
#include "support/faultinject.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace {

using namespace ssnkit;

core::SsnScenario nominal_scenario() {
  core::SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.vdd = 1.8;
  s.slope = 1.8e10;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  s.capacitance = s.critical_capacitance();
  return s;
}

TEST(ParallelEquivalence, ClosedFormMonteCarloIsBitIdentical) {
  const core::SsnScenario s = nominal_scenario();
  analysis::MonteCarloOptions serial;
  serial.samples = 2000;
  serial.threads = 1;
  analysis::MonteCarloOptions parallel = serial;
  parallel.threads = 4;

  const auto a = analysis::monte_carlo_vmax(s, serial);
  const auto b = analysis::monte_carlo_vmax(s, parallel);

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;  // ssnlint-ignore(SSN-L001)
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.region_flip_fraction, b.region_flip_fraction);
}

TEST(ParallelEquivalence, SimMonteCarloIsBitIdentical) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  analysis::SimMonteCarloOptions serial;
  serial.samples = 6;
  serial.batch.threads = 1;
  analysis::SimMonteCarloOptions parallel = serial;
  parallel.batch.threads = 4;

  const auto a = analysis::monte_carlo_vmax_sim(cal, process::package_pga(), 4,
                                                0.1e-9, true, serial);
  const auto b = analysis::monte_carlo_vmax_sim(cal, process::package_pga(), 4,
                                                0.1e-9, true, parallel);

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].index, b.samples[i].index);
    EXPECT_EQ(a.samples[i].l_factor, b.samples[i].l_factor);
    EXPECT_EQ(a.samples[i].c_factor, b.samples[i].c_factor);
    EXPECT_EQ(a.samples[i].rise_factor, b.samples[i].rise_factor);
    EXPECT_EQ(a.samples[i].width_factor, b.samples[i].width_factor);
    EXPECT_EQ(a.samples[i].v_max, b.samples[i].v_max) << "sample " << i;
    EXPECT_EQ(a.samples[i].fidelity, b.samples[i].fidelity);
  }
  EXPECT_EQ(a.surviving, b.surviving);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  // Summary bookkeeping is replayed in index order after the join, so even
  // the human-readable notes must match line for line.
  EXPECT_EQ(a.summary.total, b.summary.total);
  EXPECT_EQ(a.summary.by_fidelity, b.summary.by_fidelity);
  EXPECT_EQ(a.summary.by_error, b.summary.by_error);
  EXPECT_EQ(a.summary.notes, b.summary.notes);
}

TEST(ParallelEquivalence, DriverSweepIsBitIdentical) {
  analysis::DriverSweepConfig serial;
  serial.driver_counts = {1, 2, 4, 8};
  serial.batch.threads = 1;
  analysis::DriverSweepConfig parallel = serial;
  parallel.batch.threads = 4;

  const auto a = analysis::run_driver_sweep(serial);
  const auto b = analysis::run_driver_sweep(parallel);

  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].n, b.rows[i].n);
    EXPECT_EQ(a.rows[i].sim, b.rows[i].sim) << "row " << i;
    EXPECT_EQ(a.rows[i].this_work, b.rows[i].this_work);
    EXPECT_EQ(a.rows[i].err_this, b.rows[i].err_this);
    EXPECT_EQ(a.rows[i].fidelity, b.rows[i].fidelity);
  }
  EXPECT_EQ(a.summary.notes, b.summary.notes);
}

// Under fault injection the per-sample RNG streams (FaultSampleScope) make
// the injected faults — and therefore the recovery paths each sample takes —
// a function of the sample index alone, not of scheduling. The whole batch,
// failures included, must still be bit-identical across thread counts.
TEST(ParallelEquivalence, SimMonteCarloUnderFaultInjectionIsBitIdentical) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "requires the fault-injection preset";

  support::FaultPlan plan;
  plan.probability = 0.5;
  plan.seed = 99;
  support::FaultInjector::instance().arm(support::FaultKind::kSingularLu, plan);

  analysis::SimMonteCarloOptions serial;
  serial.samples = 6;
  serial.batch.threads = 1;
  analysis::SimMonteCarloOptions parallel = serial;
  parallel.batch.threads = 4;

  const auto cal = analysis::calibrate(process::tech_180nm());
  const auto a = analysis::monte_carlo_vmax_sim(cal, process::package_pga(), 4,
                                                0.1e-9, true, serial);
  const auto b = analysis::monte_carlo_vmax_sim(cal, process::package_pga(), 4,
                                                0.1e-9, true, parallel);
  support::FaultInjector::instance().disarm_all();

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].v_max, b.samples[i].v_max) << "sample " << i;
    EXPECT_EQ(a.samples[i].fidelity, b.samples[i].fidelity) << "sample " << i;
  }
  EXPECT_EQ(a.surviving, b.surviving);
  EXPECT_EQ(a.summary.by_fidelity, b.summary.by_fidelity);
  EXPECT_EQ(a.summary.by_error, b.summary.by_error);
  EXPECT_EQ(a.summary.notes, b.summary.notes);
}

}  // namespace
