// Waveform container, analytic sources and comparison metrics.
#include "waveform/metrics.hpp"
#include "waveform/source_spec.hpp"
#include "waveform/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace ssnkit::waveform;

TEST(Waveform, ConstructionValidation) {
  EXPECT_NO_THROW(Waveform({0.0, 1.0}, {1.0, 2.0}));
  EXPECT_THROW(Waveform({0.0, 1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Waveform({1.0, 1.0}, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Waveform({2.0, 1.0}, {0.0, 0.0}), std::invalid_argument);
}

TEST(Waveform, SampleInterpolatesAndClamps) {
  Waveform w({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(w.sample(0.5), 5.0);
  EXPECT_DOUBLE_EQ(w.sample(1.5), 5.0);
  EXPECT_DOUBLE_EQ(w.sample(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.sample(5.0), 0.0);
}

TEST(Waveform, AppendEnforcesOrder) {
  Waveform w;
  w.append(0.0, 1.0);
  w.append(1.0, 2.0);
  EXPECT_THROW(w.append(0.5, 3.0), std::invalid_argument);
  EXPECT_THROW(w.append(1.0, 3.0), std::invalid_argument);
}

TEST(Waveform, MaximumAndWindowedMaximum) {
  Waveform w({0.0, 1.0, 2.0, 3.0}, {0.0, 4.0, 1.0, 9.0});
  EXPECT_DOUBLE_EQ(w.maximum().value, 9.0);
  EXPECT_DOUBLE_EQ(w.maximum().t, 3.0);
  const auto win = w.maximum_in(0.0, 2.0);
  EXPECT_DOUBLE_EQ(win.value, 4.0);
  EXPECT_DOUBLE_EQ(win.t, 1.0);
  // Window edges are interpolated.
  const auto frac = w.maximum_in(0.0, 0.5);
  EXPECT_DOUBLE_EQ(frac.value, 2.0);
}

TEST(Waveform, ArithmeticAndScaling) {
  Waveform a({0.0, 1.0}, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(a.scaled(2.0).sample(1.0), 6.0);
  EXPECT_DOUBLE_EQ(a.shifted(-1.0).sample(0.0), 0.0);
}

TEST(Waveform, WindowedExtractsInterior) {
  const auto w = Waveform::from_function([](double t) { return t; }, 0.0, 10.0, 101);
  const auto win = w.windowed(2.5, 7.5);
  EXPECT_DOUBLE_EQ(win.t_begin(), 2.5);
  EXPECT_DOUBLE_EQ(win.t_end(), 7.5);
  EXPECT_NEAR(win.sample(5.0), 5.0, 1e-12);
}

// --- sources ---------------------------------------------------------------

TEST(SourceSpec, RampShape) {
  const Ramp ramp{0.0, 1.8, 1e-9, 0.1e-9};
  EXPECT_DOUBLE_EQ(source_value(ramp, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(source_value(ramp, 1e-9), 0.0);
  EXPECT_NEAR(source_value(ramp, 1.05e-9), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(source_value(ramp, 2e-9), 1.8);
  EXPECT_NEAR(ramp.slope(), 1.8e10, 1e-3);
}

TEST(SourceSpec, RampBreakpoints) {
  const Ramp ramp{0.0, 1.0, 1e-9, 2e-9};
  const auto bps = source_breakpoints(ramp, 0.0, 10e-9);
  ASSERT_EQ(bps.size(), 2u);
  EXPECT_DOUBLE_EQ(bps[0], 1e-9);
  EXPECT_DOUBLE_EQ(bps[1], 3e-9);
}

TEST(SourceSpec, PulseIsPeriodic) {
  const Pulse p{0.0, 1.0, 0.0, 1e-10, 1e-10, 1e-9, 3e-9};
  EXPECT_NEAR(source_value(p, 0.5e-9), 1.0, 1e-12);
  EXPECT_NEAR(source_value(p, 2e-9), 0.0, 1e-12);
  EXPECT_NEAR(source_value(p, 3.5e-9), 1.0, 1e-12);  // second period
}

TEST(SourceSpec, PwlInterpolates) {
  Pwl pwl;
  pwl.points = {{0.0, 0.0}, {1.0, 2.0}, {3.0, 0.0}};
  EXPECT_DOUBLE_EQ(source_value(pwl, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(source_value(pwl, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(source_value(pwl, 9.0), 0.0);
}

TEST(SourceSpec, SineDelayed) {
  const Sine s{0.5, 1.0, 1e9, 1e-9};
  EXPECT_DOUBLE_EQ(source_value(s, 0.0), 0.5);
  EXPECT_NEAR(source_value(s, 1e-9 + 0.25e-9), 1.5, 1e-9);
}

TEST(SourceSpec, ValidationCatchesBadShapes) {
  EXPECT_THROW(validate(Ramp{0.0, 1.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(validate(Pulse{0.0, 1.0, 0.0, 0.0, 1e-12, 1e-9, 2e-9}),
               std::invalid_argument);
  Pwl bad;
  bad.points = {{1.0, 0.0}, {0.5, 1.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  EXPECT_THROW(validate(Sine{0.0, 1.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_NO_THROW(validate(Dc{1.0}));
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, Crossings) {
  const auto w = Waveform::from_function([](double t) { return std::sin(t); }, 0.0,
                                         6.0, 601);
  const auto up = first_rising_crossing(w, 0.5);
  ASSERT_TRUE(up.has_value());
  EXPECT_NEAR(*up, std::asin(0.5), 1e-3);
  const auto down = first_falling_crossing(w, 0.5);
  ASSERT_TRUE(down.has_value());
  EXPECT_NEAR(*down, M_PI - std::asin(0.5), 1e-3);
  EXPECT_FALSE(first_rising_crossing(w, 2.0).has_value());
}

TEST(Metrics, CompareIdenticalIsZero) {
  const auto w = Waveform::from_function([](double t) { return t; }, 0.0, 1.0, 21);
  const auto err = compare(w, w, w.t_begin(), w.t_end());
  EXPECT_DOUBLE_EQ(err.max_abs, 0.0);
  EXPECT_DOUBLE_EQ(err.peak_rel, 0.0);
}

TEST(Metrics, CompareReportsPeakError) {
  const auto ref = Waveform::from_function([](double t) { return std::sin(t); },
                                           0.0, M_PI, 201);
  const auto model = ref.scaled(1.1);
  const auto err = compare(model, ref, ref.t_begin(), ref.t_end());
  EXPECT_NEAR(err.peak_rel, 0.1, 1e-6);
  EXPECT_NEAR(err.norm_max_abs, 0.1, 1e-6);
}

}  // namespace
