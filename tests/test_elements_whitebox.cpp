// White-box element tests: companion-model algebra per integrator, PMOS
// polarity mapping, reverse-mode MOSFET operation, the MOSFET stamp against
// the finite-difference oracle, and element bookkeeping.
#include "circuit/circuit.hpp"
#include "devices/asdm.hpp"
#include "process/technology.hpp"
#include "reference/jacobian.hpp"
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace {

using namespace ssnkit;
using namespace ssnkit::circuit;
using numeric::Matrix;
using numeric::Vector;

// Assemble one transient stamp of a single element into a fresh system.
struct StampHarness {
  explicit StampHarness(Circuit& ckt) : n(std::size_t(ckt.finalize())), a(n, n), b(n) {
    ctx.mode = AnalysisMode::kTransient;
    ctx.a = &a;
    ctx.b = &b;
    x = Vector(n);
    ctx.x = &x;
  }
  std::size_t n;
  Matrix a;
  Vector b;
  Vector x;
  StampContext ctx;
};

TEST(CapacitorStamp, BackwardEulerCompanion) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  auto& cap = ckt.add_capacitor("C1", a, kGround, 2e-12);
  StampHarness h(ckt);
  h.ctx.coeffs.method = Integrator::kBackwardEuler;
  h.ctx.coeffs.h = 1e-12;
  // History: v_prev = 0 (default state after construction + reset).
  cap.reset_derivative_history();
  cap.stamp(h.ctx);
  // geq = C/h = 2 S on the diagonal; no history current.
  EXPECT_NEAR(h.a(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(h.b[0], 0.0, 1e-15);
}

TEST(InductorStamp, DcIsShort) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_inductor("L1", a, kGround, 5e-9);
  StampHarness h(ckt);
  h.ctx.mode = AnalysisMode::kDc;
  ckt.elements()[0]->stamp(h.ctx);
  // Branch row: v_a = 0 -> A(branch, a) = 1, no current coefficient.
  EXPECT_NEAR(h.a(1, 0), 1.0, 1e-12);   // branch row, voltage column
  EXPECT_NEAR(h.a(0, 1), 1.0, 1e-12);   // KCL incidence
  EXPECT_NEAR(h.a(1, 1), 0.0, 1e-12);   // short: no -L/h term
}

TEST(InductorStamp, BackwardEulerCompanion) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  auto& ind = ckt.add_inductor("L1", a, kGround, 4e-9);
  StampHarness h(ckt);
  h.ctx.coeffs.method = Integrator::kBackwardEuler;
  h.ctx.coeffs.h = 2e-12;
  ind.reset_derivative_history();
  ind.stamp(h.ctx);
  // Branch row: v_a - (L/h) i = -(L/h) i_prev; i_prev = 0.
  EXPECT_NEAR(h.a(1, 1), -2000.0, 1e-9);  // L/h = 2e3
  EXPECT_NEAR(h.b[1], 0.0, 1e-15);
}

TEST(MosfetElement, PmosMirrorsNmosSurface) {
  // A PMOS with mirrored biases must conduct the mirrored current.
  Circuit ckt;
  const auto tech = process::tech_180nm();
  std::shared_ptr<const devices::MosfetModel> model(tech.make_golden());
  const NodeId d = ckt.node("d");
  const NodeId g = ckt.node("g");
  const NodeId s = ckt.node("s");
  auto& mn = ckt.add_mosfet("Mn", d, g, s, kGround, model);
  // The PMOS n-well ties to its source so both devices see zero
  // source-bulk bias and the mirror is exact.
  auto& mp = ckt.add_mosfet("Mp", d, g, s, s, model, MosfetPolarity::kPmos);
  ckt.finalize();
  // NMOS forward: d=1.8, g=1.2, s=0.
  Vector x_n{1.8, 1.2, 0.0};
  const double i_n = mn.drain_current(x_n, ckt.node_count());
  // PMOS mirrored: d=0, g=0.6, s=1.8 (vsg=1.2, vsd=1.8).
  Vector x_p{0.0, 0.6, 1.8};
  const double i_p = mp.drain_current(x_p, ckt.node_count());
  EXPECT_GT(i_n, 1e-4);
  EXPECT_NEAR(i_p, -i_n, 1e-3 * i_n);  // flows source->drain
}

TEST(MosfetElement, ReverseModeSwapsTerminals) {
  Circuit ckt;
  const auto tech = process::tech_180nm();
  std::shared_ptr<const devices::MosfetModel> model(tech.make_golden());
  const NodeId d = ckt.node("d");
  const NodeId g = ckt.node("g");
  const NodeId s = ckt.node("s");
  auto& m = ckt.add_mosfet("M1", d, g, s, kGround, model);
  ckt.finalize();
  // Forward: (d, g, s) = (1.0, 1.8, 0).
  Vector fwd{1.0, 1.8, 0.0};
  // Reversed roles: (d, g, s) = (0, 1.8, 1.0) -> same magnitude, opposite
  // sign (the physical device is symmetric in our models' forward region).
  Vector rev{0.0, 1.8, 1.0};
  const double i_fwd = m.drain_current(fwd, ckt.node_count());
  const double i_rev = m.drain_current(rev, ckt.node_count());
  EXPECT_GT(i_fwd, 0.0);
  EXPECT_LT(i_rev, 0.0);
  // Not exactly equal (body effect differs: bulk at 0 biases the swapped
  // source) but same order.
  EXPECT_NEAR(-i_rev, i_fwd, 0.5 * i_fwd);
}

TEST(MosfetElement, StampMatchesFiniteDifferencesOfDrainCurrent) {
  // One model evaluation per stamp, reflected for PMOS and reverse
  // operation: every Jacobian entry of the drain and source rows must match
  // central differences of drain_current in that node's voltage, and the
  // linearization must reproduce the drain current at the bias point.
  struct Bias {
    const char* what;
    MosfetPolarity polarity;
    double vd, vg, vs, vb;
  };
  const Bias biases[] = {
      {"nmos forward sat", MosfetPolarity::kNmos, 1.5, 1.2, 0.2, 0.0},
      {"nmos forward triode", MosfetPolarity::kNmos, 0.35, 1.6, 0.2, 0.0},
      {"nmos forward body past clamp", MosfetPolarity::kNmos, 1.2, 1.1, 0.1, 0.9},
      {"nmos reverse sat", MosfetPolarity::kNmos, 0.2, 1.2, 1.5, 0.0},
      {"nmos reverse triode", MosfetPolarity::kNmos, 0.2, 1.6, 0.35, 0.0},
      {"pmos forward sat", MosfetPolarity::kPmos, 0.3, 0.5, 1.8, 2.0},
      {"pmos forward triode", MosfetPolarity::kPmos, 1.6, 0.2, 1.75, 1.8},
      {"pmos reverse sat", MosfetPolarity::kPmos, 1.8, 0.5, 0.3, 2.0},
      {"pmos reverse triode", MosfetPolarity::kPmos, 1.75, 0.2, 1.6, 1.8},
  };
  const auto tech = process::tech_180nm();
  for (auto golden :
       {process::GoldenKind::kAlphaPower, process::GoldenKind::kBsimLite}) {
    std::shared_ptr<const devices::MosfetModel> model(tech.make_golden(golden, 3.0));
    for (const Bias& bias : biases) {
      SCOPED_TRACE(std::string(bias.what) +
                   (golden == process::GoldenKind::kAlphaPower ? " alpha" : " bsim"));
      Circuit ckt;
      const NodeId d = ckt.node("d");
      const NodeId g = ckt.node("g");
      const NodeId s = ckt.node("s");
      const NodeId b = ckt.node("b");
      auto& m = ckt.add_mosfet("M1", d, g, s, b, model, bias.polarity);
      StampHarness h(ckt);
      h.x = Vector{bias.vd, bias.vg, bias.vs, bias.vb};
      m.stamp(h.ctx);

      const int nodes = ckt.node_count();
      const Vector grad = reference::drain_current_gradient(m, h.x, nodes);
      const double i0 = m.drain_current(h.x, nodes);
      EXPECT_GT(std::fabs(i0), 1e-6);
      const std::size_t row_d = std::size_t(d - 1), row_s = std::size_t(s - 1);
      double scale = 0.0;
      for (std::size_t k = 0; k < h.n; ++k) scale += std::fabs(h.a(row_d, k));
      for (std::size_t k = 0; k < h.n; ++k) {
        EXPECT_NEAR(h.a(row_d, k), grad[k], 1e-6 * scale) << "column " << k;
        EXPECT_EQ(h.a(row_s, k), -h.a(row_d, k)) << "column " << k;
      }
      // KCL rows of the linearization at the bias point: J*x + ieq = i0
      // leaves the drain and enters the source.
      double lin_d = -h.b[row_d], lin_s = -h.b[row_s];
      for (std::size_t k = 0; k < h.n; ++k) {
        lin_d += h.a(row_d, k) * h.x[k];
        lin_s += h.a(row_s, k) * h.x[k];
      }
      EXPECT_NEAR(lin_d, i0, 1e-12 * std::fabs(i0) + 1e-15);
      EXPECT_NEAR(lin_s, -i0, 1e-12 * std::fabs(i0) + 1e-15);
    }
  }
}

TEST(ElementBookkeeping, RemoveElementAndReuseName) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add_resistor("R1", a, kGround, 1e3);
  ckt.add_resistor("R2", a, kGround, 2e3);
  ckt.remove_element("R1");
  EXPECT_EQ(ckt.find_element("R1"), nullptr);
  EXPECT_NE(ckt.find_element("R2"), nullptr);
  // Name can be reused after removal.
  EXPECT_NO_THROW(ckt.add_resistor("R1", a, kGround, 3e3));
  EXPECT_THROW(ckt.remove_element("Rx"), std::invalid_argument);
}

TEST(ElementBookkeeping, BranchIndicesReassignedAfterRemoval) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_vsource("V1", a, kGround, waveform::Dc{1.0});
  ckt.add_inductor("L1", a, b, 1e-9);
  ckt.add_resistor("R1", b, kGround, 10.0);
  ckt.finalize();
  EXPECT_EQ(ckt.branch_count(), 2);
  ckt.remove_element("V1");
  ckt.add_isource("I1", kGround, a, waveform::Dc{1e-3});
  ckt.finalize();
  EXPECT_EQ(ckt.branch_count(), 1);
  // The circuit still solves correctly after the surgery.
  const auto dc = sim::dc_operating_point(ckt);
  EXPECT_NEAR(dc.voltage(ckt, "b"), 1e-3 * 10.0, 1e-9);
  EXPECT_NEAR(dc.voltage(ckt, "a"), 1e-3 * 10.0, 1e-9);  // inductor shorts a-b
}

TEST(AsdmElement, SourceBounceReducesCurrentInCircuit) {
  // The lambda > 1 coupling visible at the element level: raising the
  // source node by dv reduces the current by K*lambda*dv.
  Circuit ckt;
  const devices::AsdmParams p{.k = 5e-3, .lambda = 1.3, .vx = 0.6};
  auto model = std::make_shared<devices::AsdmModel>(p);
  const NodeId d = ckt.node("d");
  const NodeId g = ckt.node("g");
  const NodeId s = ckt.node("s");
  auto& m = ckt.add_mosfet("M1", d, g, s, kGround, model);
  ckt.finalize();
  Vector quiet{1.8, 1.5, 0.0};
  Vector bounced{1.8, 1.5, 0.2};
  const double di = m.drain_current(quiet, ckt.node_count()) -
                    m.drain_current(bounced, ckt.node_count());
  EXPECT_NEAR(di, p.k * p.lambda * 0.2, 1e-5);
}

}  // namespace
