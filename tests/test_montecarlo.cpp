// Monte Carlo variation analysis on the closed-form models, plus the
// failure-tolerant simulator-backed Monte Carlo. The normal stream, the
// selection quantile and the one-model-per-sample loop are held bit for bit
// against the std:: draws, full sort and two-model loop they replaced
// (tests/reference/montecarlo.*).
#include "analysis/calibrate.hpp"
#include "analysis/design.hpp"
#include "analysis/montecarlo.hpp"
#include "numeric/normal_stream.hpp"
#include "numeric/stats.hpp"
#include "reference/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

namespace {

using namespace ssnkit;
using analysis::monte_carlo_vmax;
using analysis::monte_carlo_vmax_sim;
using analysis::MonteCarloOptions;
using analysis::SimMonteCarloOptions;

core::SsnScenario nominal() {
  core::SsnScenario s;
  s.n_drivers = 8;
  s.inductance = 5e-9;
  s.capacitance = 1e-12;
  s.vdd = 1.8;
  s.slope = 1.8e10;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  return s;
}

TEST(Quantile, InterpolatesSorted) {
  const double xs[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(ssnkit::numeric::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ssnkit::numeric::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ssnkit::numeric::quantile(xs, 0.5), 2.5);
  EXPECT_THROW(ssnkit::numeric::quantile(std::span<const double>{}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(ssnkit::numeric::quantile(xs, 1.5), std::invalid_argument);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Quantile, SelectionMatchesFullSort) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> spread(-1.0, 1.0);
  std::uniform_int_distribution<int> few(0, 4);
  for (std::size_t n : {1, 2, 3, 10, 1000, 2001}) {
    std::vector<double> random(n);
    std::vector<double> duplicated(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = spread(rng);
      duplicated[i] = 0.25 * double(few(rng));
    }
    for (const std::vector<double>* xs : {&random, &duplicated})
      for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_TRUE(same_bits(numeric::quantile(*xs, q),
                              reference::sorted_quantile(*xs, q)))
            << "n = " << n << ", q = " << q;
  }
}

// std::mt19937's sequence is fixed by the standard, so the block generator
// must reproduce it on any standard library.
TEST(NormalStream, WordsAreStdMt19937) {
  for (std::uint32_t seed : {0u, 1u, 12345u, 2147483647u, 4294967295u}) {
    std::mt19937 rng(seed);
    numeric::NormalStream stream(seed);
    for (int i = 0; i < 5000; ++i) {
      const auto want = std::uint32_t(rng());
      const std::uint32_t got = stream.next_word();
      if (got != want)
        FAIL() << "seed " << seed << ", word " << i << ": " << got
               << " != " << want;
    }
  }
}

TEST(NormalStream, PortableGoldenValues) {
  // The standard's own check: the 10,000th word of a default-seeded
  // (5489) std::mt19937 is 4123659995.
  numeric::NormalStream words(5489);
  std::uint32_t word = 0;
  for (int i = 0; i < 10000; ++i) word = words.next_word();
  EXPECT_EQ(word, 4123659995u);
  // The first normals of the default Monte Carlo seed, at 17 digits.
  numeric::NormalStream gauss(12345);
  for (double want : {0.59509116615656177, 0.041834029147292964,
                      0.80044670802607831, -0.071921683380393439,
                      -1.0430688803253312, -0.38115577049773919})
    EXPECT_TRUE(same_bits(gauss.next(), want)) << want;
}

TEST(NormalStream, MatchesLibstdcxxNormalDistribution) {
#if defined(__GLIBCXX__)
  for (std::uint32_t seed : {0u, 1u, 12345u, 2147483647u, 4294967295u}) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    numeric::NormalStream stream(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const double want = gauss(rng);
      const double got = stream.next();
      if (!same_bits(got, want))
        FAIL() << "seed " << seed << ", draw " << i << ": " << got
               << " != " << want;
    }
  }
#else
  GTEST_SKIP() << "the polar method reproduced is libstdc++'s";
#endif
}

void expect_same_result(const analysis::MonteCarloResult& got,
                        const analysis::MonteCarloResult& want) {
  ASSERT_EQ(got.samples.size(), want.samples.size());
  EXPECT_EQ(std::memcmp(got.samples.data(), want.samples.data(),
                        got.samples.size() * sizeof(double)),
            0);
  EXPECT_TRUE(same_bits(got.mean, want.mean));
  EXPECT_TRUE(same_bits(got.stddev, want.stddev));
  EXPECT_TRUE(same_bits(got.min, want.min));
  EXPECT_TRUE(same_bits(got.max, want.max));
  EXPECT_TRUE(same_bits(got.p95, want.p95));
  EXPECT_TRUE(same_bits(got.p99, want.p99));
  EXPECT_TRUE(same_bits(got.ci95, want.ci95));
  EXPECT_TRUE(same_bits(got.region_flip_fraction, want.region_flip_fraction));
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.stop, want.stop);
}

// Named under MonteCarlo so the tsan job runs its 4-thread legs.
TEST(MonteCarlo, MatchesReferenceAlgorithmBitForBit) {
#if defined(__GLIBCXX__)
  auto near_critical = nominal();  // flips the damping region often
  near_critical.capacitance = near_critical.critical_capacitance();
  auto l_only = nominal();
  l_only.capacitance = 0.0;
  for (const core::SsnScenario& s : {nominal(), near_critical, l_only})
    for (unsigned seed : {0u, 12345u})
      for (int samples : {2, 3, 1000, 20000}) {
        MonteCarloOptions opts;
        opts.samples = samples;
        opts.seed = seed;
        const auto want = reference::monte_carlo_vmax(s, opts);
        for (int threads : {1, 4}) {
          SCOPED_TRACE("C = " + std::to_string(s.capacitance) + ", seed " +
                       std::to_string(seed) + ", " + std::to_string(samples) +
                       " samples, " + std::to_string(threads) + " threads");
          opts.threads = threads;
          expect_same_result(monte_carlo_vmax(s, opts), want);
        }
      }
#else
  GTEST_SKIP() << "the reference draws from libstdc++'s normal_distribution";
#endif
}

TEST(MonteCarlo, DistributionBracketsNominal) {
  const auto s = nominal();
  MonteCarloOptions opts;
  opts.samples = 500;
  const auto result = monte_carlo_vmax(s, opts);
  ASSERT_EQ(result.samples.size(), 500u);
  const double v_nom = analysis::predict_vmax(s);
  EXPECT_LT(result.min, v_nom);
  EXPECT_GT(result.max, v_nom);
  EXPECT_NEAR(result.mean, v_nom, 0.1 * v_nom);
  EXPECT_GT(result.stddev, 0.0);
  EXPECT_GE(result.p95, result.mean);
  EXPECT_GE(result.p99, result.p95);
  EXPECT_LE(result.p99, result.max);
}

TEST(MonteCarlo, Deterministic) {
  const auto a = monte_carlo_vmax(nominal());
  const auto b = monte_carlo_vmax(nominal());
  EXPECT_EQ(a.samples, b.samples);
  MonteCarloOptions other_seed;
  other_seed.seed = 999;
  const auto c = monte_carlo_vmax(nominal(), other_seed);
  EXPECT_NE(a.samples, c.samples);
  // Regression: an explicitly set seed reproduces bit-for-bit across fresh
  // options objects, not just the default-constructed path.
  MonteCarloOptions same_seed;
  same_seed.seed = 999;
  const auto d = monte_carlo_vmax(nominal(), same_seed);
  EXPECT_EQ(c.samples, d.samples);
  EXPECT_DOUBLE_EQ(c.p95, d.p95);
}

TEST(MonteCarlo, ZeroSigmaCollapses) {
  MonteCarloOptions opts;
  opts.samples = 10;
  opts.sigma_k = opts.sigma_lambda = opts.sigma_vx = 0.0;
  opts.sigma_l = opts.sigma_c = opts.sigma_slope = 0.0;
  const auto result = monte_carlo_vmax(nominal(), opts);
  EXPECT_DOUBLE_EQ(result.stddev, 0.0);
  EXPECT_DOUBLE_EQ(result.min, result.max);
  EXPECT_DOUBLE_EQ(result.region_flip_fraction, 0.0);
}

TEST(MonteCarlo, WiderSigmaWiderSpread) {
  MonteCarloOptions narrow;
  narrow.samples = 400;
  narrow.sigma_l = 0.02;
  MonteCarloOptions wide = narrow;
  wide.sigma_l = 0.20;
  const double s_narrow = monte_carlo_vmax(nominal(), narrow).stddev;
  const double s_wide = monte_carlo_vmax(nominal(), wide).stddev;
  EXPECT_GT(s_wide, s_narrow);
}

TEST(MonteCarlo, RegionFlipsDetectedNearBoundary) {
  // Put the nominal right at critical damping: variation flips the region
  // in roughly half of the samples.
  auto s = nominal();
  s.capacitance = s.critical_capacitance();
  MonteCarloOptions opts;
  opts.samples = 400;
  const auto result = monte_carlo_vmax(s, opts);
  EXPECT_GT(result.region_flip_fraction, 0.3);
  // Deep in the over-damped region, flips are rare.
  auto far = nominal();
  far.capacitance = far.critical_capacitance() * 0.05;
  EXPECT_LT(monte_carlo_vmax(far, opts).region_flip_fraction, 0.05);
}

TEST(MonteCarlo, LOnlyPathWorks) {
  auto s = nominal();
  s.capacitance = 0.0;
  const auto result = monte_carlo_vmax(s);
  EXPECT_GT(result.mean, 0.0);
  EXPECT_DOUBLE_EQ(result.region_flip_fraction, 0.0);
}

TEST(MonteCarlo, OptionValidation) {
  MonteCarloOptions opts;
  opts.samples = 1;
  EXPECT_THROW(monte_carlo_vmax(nominal(), opts), std::invalid_argument);
  opts = {};
  opts.sigma_k = 0.9;
  EXPECT_THROW(monte_carlo_vmax(nominal(), opts), std::invalid_argument);
}

// --- simulator-backed, failure-tolerant Monte Carlo --------------------------

const analysis::Calibration& cal() {
  static const analysis::Calibration c =
      analysis::calibrate(process::tech_180nm());
  return c;
}

TEST(SimMonteCarlo, SmallHealthyBatchIsDeterministic) {
  SimMonteCarloOptions opts;
  opts.samples = 3;
  const auto pkg = process::package_pga();
  const auto a = monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9, true, opts);
  ASSERT_EQ(a.samples.size(), 3u);
  EXPECT_EQ(a.surviving, 3u);
  EXPECT_TRUE(a.summary.all_full_fidelity());
  EXPECT_GT(a.mean, 0.0);
  EXPECT_GE(a.max, a.min);
  for (const auto& s : a.samples) {
    EXPECT_EQ(s.fidelity, sim::Fidelity::kFullDevice);
    EXPECT_GT(s.v_max, 0.0);
    EXPECT_NE(s.l_factor, 0.0);
  }
  const auto b = monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9, true, opts);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].v_max, b.samples[i].v_max);
    EXPECT_DOUBLE_EQ(a.samples[i].l_factor, b.samples[i].l_factor);
  }
}

TEST(SimMonteCarlo, ForcedFailuresDegradeToAnalytic) {
  // A 1-step budget kills every simulation rung of every sample; with the
  // analytic fallback the batch still yields a full set of estimates.
  SimMonteCarloOptions opts;
  opts.samples = 3;
  opts.batch.transient.max_steps = 1;
  const auto pkg = process::package_pga();
  const auto result = monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9, true, opts);
  EXPECT_EQ(result.surviving, 3u);
  EXPECT_EQ(result.summary.analytic, 3u);
  EXPECT_EQ(result.summary.by_error.at("step-budget-exhausted"), 3u);
  EXPECT_GT(result.mean, 0.0);
  for (const auto& s : result.samples)
    EXPECT_EQ(s.fidelity, sim::Fidelity::kAnalytic);
}

TEST(SimMonteCarlo, OptionValidation) {
  const auto pkg = process::package_pga();
  SimMonteCarloOptions opts;
  opts.samples = 0;
  EXPECT_THROW(monte_carlo_vmax_sim(cal(), pkg, 2, 0.1e-9, true, opts),
               std::invalid_argument);
}

}  // namespace
