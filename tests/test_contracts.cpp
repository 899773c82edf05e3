// Contract-layer tests: every migrated precondition throws ContractViolation
// (which is-a std::invalid_argument, so pre-migration call sites still work),
// and SSN_ASSERT_FINITE stops seeded NaNs at the solver boundaries.
#include "support/contracts.hpp"

#include "circuit/driver_chain.hpp"
#include "circuit/testbench.hpp"
#include "numeric/levenberg_marquardt.hpp"
#include "numeric/lu.hpp"
#include "reference/ode.hpp"
#include "process/package.hpp"
#include "process/technology.hpp"
#include "waveform/source_spec.hpp"
#include "waveform/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace {

using ssnkit::ContractViolation;
using ssnkit::numeric::LmOptions;
using ssnkit::numeric::Matrix;
using ssnkit::numeric::Vector;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Contracts, RequirePassesAndFails) {
  EXPECT_NO_THROW(SSN_REQUIRE(1 + 1 == 2, "arithmetic works"));
  EXPECT_THROW(SSN_REQUIRE(false, "always fails"), ContractViolation);
}

TEST(Contracts, EnsurePassesAndFails) {
  EXPECT_NO_THROW(SSN_ENSURE(true, "ok"));
  EXPECT_THROW(SSN_ENSURE(false, "bad result"), ContractViolation);
}

TEST(Contracts, ViolationIsInvalidArgument) {
  // Migrated call sites used to throw std::invalid_argument; catching that
  // must keep working.
  EXPECT_THROW(SSN_REQUIRE(false, "compat"), std::invalid_argument);
  EXPECT_THROW(SSN_REQUIRE(false, "compat"), std::logic_error);
}

TEST(Contracts, MessageCarriesFileLineAndKind) {
  try {
    SSN_REQUIRE(false, "the message");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("the message"), std::string::npos) << what;
  }
  try {
    SSN_ENSURE(false, "post");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"), std::string::npos);
  }
}

TEST(Contracts, AssertFiniteOnScalarsAndRanges) {
  const double ok = 1.5;
  EXPECT_NO_THROW(SSN_ASSERT_FINITE(ok));
  const double bad = kNaN;
  EXPECT_THROW(SSN_ASSERT_FINITE(bad), ContractViolation);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SSN_ASSERT_FINITE(inf), ContractViolation);

  const Vector v{1.0, 2.0, 3.0};
  EXPECT_NO_THROW(SSN_ASSERT_FINITE(v));
  const Vector poisoned{1.0, kNaN, 3.0};
  EXPECT_THROW(SSN_ASSERT_FINITE(poisoned), ContractViolation);
  const std::vector<double> stdvec{0.0, -inf};
  EXPECT_THROW(SSN_ASSERT_FINITE(stdvec), ContractViolation);
}

// --- migrated preconditions -------------------------------------------------

TEST(Contracts, PackageNegativeInductanceThrows) {
  ssnkit::process::Package p{"bad", -1e-9, 1e-12, 0.01};
  EXPECT_THROW(p.validate(), ContractViolation);
  EXPECT_THROW(ssnkit::process::package_pga().with_ground_pads(0),
               ContractViolation);
}

TEST(Contracts, TechnologyBadVddThrows) {
  ssnkit::process::Technology t = ssnkit::process::tech_180nm();
  t.vdd = 0.0;
  EXPECT_THROW(t.validate(), ContractViolation);
}

TEST(Contracts, WaveformNonIncreasingTimesThrows) {
  EXPECT_THROW(ssnkit::waveform::Waveform({0.0, 1.0, 1.0}, {0.0, 1.0, 2.0}),
               ContractViolation);
  EXPECT_THROW(ssnkit::waveform::Waveform({0.0, 1.0}, {0.0}), ContractViolation);
  ssnkit::waveform::Waveform w({0.0, 1.0}, {0.0, 1.0});
  EXPECT_THROW(w.append(0.5, 2.0), ContractViolation);
}

TEST(Contracts, SourceSpecValidation) {
  using namespace ssnkit::waveform;
  EXPECT_THROW(validate(SourceSpec{Ramp{.t_start = 0.0, .rise_time = 0.0}}),
               ContractViolation);
  EXPECT_THROW(validate(SourceSpec{Sine{.frequency = -1.0}}), ContractViolation);
}

TEST(Contracts, LmBoundSizeMismatchThrows) {
  const auto residual = [](const Vector& p, Vector& r) { r[0] = p[0]; r[1] = p[0]; };
  LmOptions opts;
  opts.lower_bounds = {0.0, 0.0};  // two bounds for a one-parameter problem
  EXPECT_THROW(
      ssnkit::numeric::levenberg_marquardt(residual, Vector{1.0}, 2, opts),
      ContractViolation);
}

TEST(Contracts, LmNonFiniteInitialResidualFailsFast) {
  // Regression: a NaN cost at p0 used to exhaust the damping loop and
  // return converged=true with untouched parameters.
  const auto residual = [](const Vector& p, Vector& r) {
    r[0] = kNaN;
    r[1] = p[0];
  };
  EXPECT_THROW(ssnkit::numeric::levenberg_marquardt(residual, Vector{1.0}, 2, {}),
               ContractViolation);
}

TEST(Contracts, BenchSpecPreconditions) {
  ssnkit::circuit::SsnBenchSpec spec;
  spec.tech = ssnkit::process::tech_350nm();
  spec.package = ssnkit::process::package_pga();
  spec.n_drivers = 0;
  EXPECT_THROW(spec.validate(), ContractViolation);

  ssnkit::circuit::TaperedDriverSpec tspec;
  tspec.tech = ssnkit::process::tech_350nm();
  tspec.package = ssnkit::process::package_pga();
  tspec.taper = 0.5;
  EXPECT_THROW(tspec.validate(), ContractViolation);
}

// --- finite-value postconditions on the hot kernels -------------------------

TEST(Contracts, LuSolveTrapsSeededNan) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  ssnkit::numeric::LuFactorization lu(a);
  EXPECT_THROW(lu.solve(Vector{1.0, kNaN}), ContractViolation);
  EXPECT_NO_THROW(lu.solve(Vector{1.0, 1.0}));
  EXPECT_THROW(lu.solve(Vector{kNaN, 0.0}), ContractViolation);
}

TEST(Contracts, Rk4TrapsNanState) {
  const auto rhs = [](double, const Vector& y) { return y; };
  EXPECT_THROW(ssnkit::numeric::rk4(rhs, 0.0, 1.0, Vector{kNaN}, 8),
               ContractViolation);
  // RHS that blows up mid-integration: 1/(t - 0.5) crosses a pole.
  const auto pole = [](double t, const Vector& y) {
    Vector dy(y.size());
    dy[0] = 1.0 / (t - 0.5) / (t - 0.5) * 1e300;
    return dy;
  };
  EXPECT_THROW(ssnkit::numeric::rk4(pole, 0.0, 1.0, Vector{0.0}, 4),
               ContractViolation);
}

TEST(Contracts, Rk45TrapsNanState) {
  const auto rhs = [](double, const Vector& y) { return y; };
  EXPECT_THROW(ssnkit::numeric::rk45(rhs, 0.0, 1.0, Vector{kNaN}, {}),
               ContractViolation);
  const auto nan_rhs = [](double t, const Vector& y) {
    Vector dy(y.size());
    dy[0] = t > 0.2 ? kNaN : 1.0;
    return dy;
  };
  EXPECT_THROW(ssnkit::numeric::rk45(nan_rhs, 0.0, 1.0, Vector{0.0}, {}),
               ContractViolation);
}

TEST(Contracts, NoContractsCompileOut) {
  // The macros are exercised with SSNKIT_NO_CONTRACTS in a nested scope via
  // the shipped no-op definitions; here we just confirm the always-on build
  // evaluates the condition exactly once.
  int evaluations = 0;
  SSN_REQUIRE(++evaluations == 1, "single evaluation");
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
