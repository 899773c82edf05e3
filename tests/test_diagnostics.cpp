// The structured failure taxonomy (support/diagnostics.hpp): SolverError
// carries a kind, a location and the homotopy/recovery trails, and the
// solver entry points actually populate them.
#include "circuit/circuit.hpp"
#include "reference/ode.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using namespace ssnkit::sim;
using support::SolverDiagnostics;
using support::SolverError;
using support::SolverErrorKind;
using ssnkit::waveform::Dc;

TEST(SolverErrorKind, NamesAreStable) {
  EXPECT_STREQ(to_string(SolverErrorKind::kNewtonDivergence),
               "newton-divergence");
  EXPECT_STREQ(to_string(SolverErrorKind::kSingularMatrix), "singular-matrix");
  EXPECT_STREQ(to_string(SolverErrorKind::kNonFiniteValue),
               "non-finite-value");
  EXPECT_STREQ(to_string(SolverErrorKind::kStepUnderflow), "step-underflow");
  EXPECT_STREQ(to_string(SolverErrorKind::kStepBudgetExhausted),
               "step-budget-exhausted");
  EXPECT_STREQ(to_string(SolverErrorKind::kHomotopyExhausted),
               "homotopy-exhausted");
}

TEST(SolverErrorKind, OnlyHomotopyExhaustionIsFatal) {
  EXPECT_TRUE(support::is_retryable(SolverErrorKind::kNewtonDivergence));
  EXPECT_TRUE(support::is_retryable(SolverErrorKind::kSingularMatrix));
  EXPECT_TRUE(support::is_retryable(SolverErrorKind::kNonFiniteValue));
  EXPECT_TRUE(support::is_retryable(SolverErrorKind::kStepUnderflow));
  EXPECT_TRUE(support::is_retryable(SolverErrorKind::kStepBudgetExhausted));
  EXPECT_FALSE(support::is_retryable(SolverErrorKind::kHomotopyExhausted));
}

TEST(SolverDiagnostics, FormatRendersEveryField) {
  SolverDiagnostics diag;
  diag.where = "dc_operating_point";
  diag.time = 1.5e-9;
  diag.node = 3;
  diag.node_name = "vssi";
  diag.newton_iterations = 42;
  diag.residual = 1e-3;
  diag.max_dv = 0.25;
  diag.injected = true;
  diag.homotopy_trail.push_back({"plain-newton", false, 100, 2.0, 1.9});
  diag.homotopy_trail.push_back({"gmin=1e-02", true, 7, 1e-10, 1e-9});
  diag.recovery_trail.push_back({"full-device", false, "newton-divergence"});
  diag.recovery_trail.push_back({"tighten-damping", true, ""});

  const std::string s =
      diag.format(SolverErrorKind::kNewtonDivergence, "no convergence");
  EXPECT_NE(s.find("SolverError[newton-divergence]"), std::string::npos);
  EXPECT_NE(s.find("dc_operating_point: no convergence"), std::string::npos);
  EXPECT_NE(s.find("node 3 'vssi'"), std::string::npos);
  EXPECT_NE(s.find("newton iterations=42"), std::string::npos);
  EXPECT_NE(s.find("[fault-injected]"), std::string::npos);
  EXPECT_NE(s.find("plain-newton(stalled"), std::string::npos);
  EXPECT_NE(s.find("gmin=1e-02(ok"), std::string::npos);
  EXPECT_NE(s.find("full-device(failed)"), std::string::npos);
  EXPECT_NE(s.find("tighten-damping(ok)"), std::string::npos);
}

TEST(SolverDiagnostics, FormatOmitsUnknownFields) {
  const SolverDiagnostics diag;  // all defaults: NaN time, node -1, no trails
  const std::string s = diag.format(SolverErrorKind::kStepUnderflow, "boom");
  EXPECT_NE(s.find("SolverError[step-underflow] boom"), std::string::npos);
  EXPECT_EQ(s.find("(t="), std::string::npos);
  EXPECT_EQ(s.find("node"), std::string::npos);
  EXPECT_EQ(s.find("homotopy"), std::string::npos);
  EXPECT_EQ(s.find("recovery"), std::string::npos);
}

TEST(SolverError, RoundtripsKindAndDiagnostics) {
  SolverDiagnostics diag;
  diag.where = "run_transient";
  diag.time = 2e-9;
  const SolverError err(SolverErrorKind::kStepUnderflow, "underflow", diag);
  EXPECT_EQ(err.kind(), SolverErrorKind::kStepUnderflow);
  EXPECT_TRUE(err.retryable());
  EXPECT_EQ(err.diagnostics().where, "run_transient");
  EXPECT_NE(std::string(err.what()).find("SolverError[step-underflow]"),
            std::string::npos);
}

TEST(SolverError, CatchableAsRuntimeError) {
  // Pre-existing callers catch std::runtime_error; the typed error must
  // keep satisfying them.
  const auto boom = [] {
    throw SolverError(SolverErrorKind::kSingularMatrix, "singular");
  };
  EXPECT_THROW(boom(), std::runtime_error);
  try {
    boom();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("singular"), std::string::npos);
  }
}

TEST(DcTrail, SuccessRecordsPlainNewtonStage) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_resistor("R1", a, b, 1e3);
  ckt.add_resistor("R2", b, kGround, 1e3);
  const DcResult dc = dc_operating_point(ckt);
  EXPECT_FALSE(dc.used_gmin_stepping);
  EXPECT_FALSE(dc.used_source_stepping);
  ASSERT_FALSE(dc.homotopy_trail.empty());
  EXPECT_EQ(dc.homotopy_trail.front().name, "plain-newton");
  EXPECT_TRUE(dc.homotopy_trail.front().converged);
  EXPECT_GT(dc.homotopy_trail.front().iterations, 0u);
  EXPECT_NEAR(dc.voltage(ckt, "b"), 0.5, 1e-9);
}

TEST(DcTrail, FloatingNodeFailureCarriesFullHomotopyTrail) {
  // A node with no DC path: every homotopy leg must be recorded in the
  // typed error so a caller can see what was tried (satellite: DC failure
  // diagnostics include the gmin/source trail and the final residual).
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_capacitor("C1", b, kGround, 1e-12);  // b floats at DC
  try {
    dc_operating_point(ckt);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kSingularMatrix);
    EXPECT_TRUE(e.retryable());
    const auto& diag = e.diagnostics();
    EXPECT_EQ(diag.where, "dc_operating_point");
    ASSERT_FALSE(diag.homotopy_trail.empty());
    EXPECT_EQ(diag.homotopy_trail.front().name, "plain-newton");
    EXPECT_FALSE(diag.homotopy_trail.front().converged);
    bool saw_gmin = false, saw_source = false;
    for (const auto& stage : diag.homotopy_trail) {
      if (stage.name.rfind("gmin", 0) == 0) saw_gmin = true;
      if (stage.name.rfind("source", 0) == 0) saw_source = true;
    }
    EXPECT_TRUE(saw_gmin);
    EXPECT_TRUE(saw_source);
  }
}

TEST(TransientEx, StepBudgetReturnsTypedErrorWithPrefix) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_vsource("V1", a, kGround, Dc{1.0});
  ckt.add_resistor("R1", a, kGround, 1e3);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.adaptive = false;
  opts.dt_initial = 1e-15;  // would need 1e6 steps
  opts.max_steps = 1000;
  const TransientRun run = run_transient_ex(ckt, opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error->kind(), SolverErrorKind::kStepBudgetExhausted);
  EXPECT_TRUE(run.error->retryable());
  EXPECT_EQ(run.error->diagnostics().where, "run_transient");
  // The high-fidelity prefix (every accepted step) is preserved.
  EXPECT_GT(run.result.point_count(), 100u);
  EXPECT_NEAR(run.result.final_value("a"), 1.0, 1e-9);
}

TEST(OdeStatus, NamesAreStable) {
  using numeric::OdeStatus;
  EXPECT_STREQ(numeric::to_string(OdeStatus::kOk), "ok");
  EXPECT_STREQ(numeric::to_string(OdeStatus::kStepBudgetExhausted),
               "step-budget-exhausted");
  EXPECT_STREQ(numeric::to_string(OdeStatus::kStepUnderflow),
               "step-underflow");
}

}  // namespace
