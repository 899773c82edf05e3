// The solver hot path's stamp plan: StampedMatrix pattern discovery /
// bound-mode refill, the stamp tape that replays it without a search, the
// missed() drift counter and the engine's drift repair, and SparseFactor's
// factorize-once / refactorize-per-iteration split. These are the
// invariants the engine's zero-allocation Newton loop rests on (see
// docs/PERFORMANCE.md).
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace ssnkit;
using numeric::Matrix;
using numeric::SparseFactor;
using numeric::StampedMatrix;
using numeric::Vector;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- StampedMatrix ----------------------------------------------------------

TEST(StampedMatrix, DiscoveryPassDoublesAsAssembly) {
  StampedMatrix m;
  m.begin_pattern(3);
  EXPECT_TRUE(m.discovering());
  m.add(0, 0, 2.0);
  m.add(0, 1, -1.0);
  m.add(1, 1, 3.0);
  m.add(2, 2, 4.0);
  m.add(0, 0, 0.5);  // duplicate coordinates merge
  m.finalize_pattern();
  EXPECT_TRUE(m.has_pattern());
  EXPECT_EQ(m.nonzeros(), 4u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);  // absent => 0
}

TEST(StampedMatrix, BoundModeRefillsWithoutChangingPattern) {
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.finalize_pattern();
  const std::size_t epoch = m.epoch();

  m.clear();
  m.add(0, 0, 7.0);
  m.add(1, 1, -2.0);
  EXPECT_EQ(m.missed(), 0u);
  EXPECT_EQ(m.epoch(), epoch);  // refill does not bump the epoch
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -2.0);
}

TEST(StampedMatrix, OutOfPatternAddIsCountedNotStored) {
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.finalize_pattern();

  m.clear();
  m.add(0, 1, 5.0);  // not in the pattern
  EXPECT_EQ(m.missed(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  m.clear();  // clear() resets the drift counter
  EXPECT_EQ(m.missed(), 0u);
}

TEST(StampedMatrix, FinalizeBumpsEpoch) {
  StampedMatrix m;
  m.begin_pattern(1);
  m.add(0, 0, 1.0);
  m.finalize_pattern();
  const std::size_t e1 = m.epoch();
  m.begin_pattern(1);
  m.add(0, 0, 1.0);
  m.finalize_pattern();
  EXPECT_GT(m.epoch(), e1);
}

TEST(StampedMatrix, MulIntoMatchesDense) {
  StampedMatrix m;
  m.begin_pattern(3);
  m.add(0, 0, 2.0);
  m.add(0, 2, 1.0);
  m.add(1, 1, -3.0);
  m.add(2, 0, 4.0);
  m.add(2, 2, 5.0);
  m.finalize_pattern();
  Vector x(3);
  x[0] = 1.0;
  x[1] = 2.0;
  x[2] = -1.0;
  Vector y(3);
  m.mul_into(x, y);
  const Matrix d = m.to_dense();
  for (std::size_t r = 0; r < 3; ++r) {
    double want = 0.0;
    for (std::size_t c = 0; c < 3; ++c) want += d(r, c) * x[c];
    EXPECT_DOUBLE_EQ(y[r], want);
  }
}

// --- stamped assembly vs dense assembly on a real circuit -------------------

TEST(StampPlan, StampedAssemblyMatchesDenseOnTestbench) {
  // A distinct input delay per driver keeps all six drivers unfolded, so
  // the comparison runs on the full 6-driver matrix.
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 6;
  for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
  auto bench = circuit::make_ssn_testbench(spec);
  ASSERT_EQ(bench.circuit.finalize(), 4 + 3 * spec.n_drivers);
  const Vector x = sim::dc_operating_point(bench.circuit).solution;
  const std::size_t n = std::size_t(bench.circuit.unknown_count());

  Matrix dense(n, n);
  Vector b_dense(n);
  {
    circuit::StampContext ctx;
    ctx.mode = circuit::AnalysisMode::kDc;
    ctx.x = &x;
    ctx.a = &dense;
    ctx.b = &b_dense;
    for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
  }

  StampedMatrix sm;
  Vector b_sparse(n);
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kDc;
  ctx.x = &x;
  ctx.sa = &sm;
  ctx.b = &b_sparse;
  sm.begin_pattern(n);
  for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
  sm.finalize_pattern();

  const Matrix got = sm.to_dense();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(got(r, c), dense(r, c)) << "entry (" << r << "," << c << ")";
    EXPECT_DOUBLE_EQ(b_sparse[r], b_dense[r]) << "rhs row " << r;
  }

  // Bound-mode refill of the cached pattern reproduces the same matrix
  // with zero misses — the invariant the engine's debug assert checks.
  sm.clear();
  b_sparse.fill(0.0);
  for (const auto& el : bench.circuit.elements()) el->stamp(ctx);
  EXPECT_EQ(sm.missed(), 0u);
  const Matrix refilled = sm.to_dense();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(refilled(r, c), dense(r, c));
}

// --- the stamp tape --------------------------------------------------------

// Discovery adds (0,0) 1, (0,1) 2, (1,1) 3, (2,2) 4, (0,0) 5: a duplicate
// coordinate, so the tape (5 entries) is longer than the pattern (4).
StampedMatrix taped_system() {
  StampedMatrix m;
  m.begin_pattern(3);
  m.add(0, 0, 1.0);
  m.add(0, 1, 2.0);
  m.add(1, 1, 3.0);
  m.add(2, 2, 4.0);
  m.add(0, 0, 5.0);
  m.finalize_pattern();
  return m;
}

TEST(StampTape, RecordsTheDiscoveryAddsInCallOrder) {
  StampedMatrix m = taped_system();
  EXPECT_EQ(m.nonzeros(), 4u);
  EXPECT_EQ(m.tape_size(), 5u);
  EXPECT_EQ(m.tape_position(), 5u);  // the discovery pass ran the tape once
  m.clear();
  EXPECT_EQ(m.tape_position(), 0u);
  m.add(0, 0, 10.0);
  m.add(0, 1, 20.0);
  m.add(1, 1, 30.0);
  m.add(2, 2, 40.0);
  m.add(0, 0, 50.0);
  EXPECT_EQ(m.tape_position(), 5u);
  EXPECT_EQ(m.missed(), 0u);
  EXPECT_EQ(m.at(0, 0), 60.0);
  EXPECT_EQ(m.at(0, 1), 20.0);
  EXPECT_EQ(m.at(1, 1), 30.0);
  EXPECT_EQ(m.at(2, 2), 40.0);
}

TEST(StampTape, SkippedEntryFallsBackToTheSearch) {
  StampedMatrix m = taped_system();
  m.clear();
  m.add(0, 0, 10.0);
  // (0,1) skipped: every later add is off the tape and searched.
  m.add(1, 1, 30.0);
  m.add(2, 2, 40.0);
  m.add(0, 0, 50.0);
  EXPECT_EQ(m.tape_position(), 1u);
  EXPECT_EQ(m.missed(), 0u);
  EXPECT_EQ(m.at(0, 0), 60.0);
  EXPECT_EQ(m.at(0, 1), 0.0);
  EXPECT_EQ(m.at(1, 1), 30.0);
  EXPECT_EQ(m.at(2, 2), 40.0);
}

TEST(StampTape, SwappedEntriesLandInTheirOwnSlots) {
  StampedMatrix m = taped_system();
  m.clear();
  m.add(0, 0, 10.0);
  m.add(1, 1, 30.0);  // swapped with the next one: searched
  m.add(0, 1, 20.0);  // the tape's next entry again
  m.add(2, 2, 40.0);  // expected (1,1): searched
  m.add(0, 0, 50.0);
  EXPECT_LT(m.tape_position(), m.tape_size());
  EXPECT_EQ(m.missed(), 0u);
  EXPECT_EQ(m.at(0, 0), 60.0);
  EXPECT_EQ(m.at(0, 1), 20.0);
  EXPECT_EQ(m.at(1, 1), 30.0);
  EXPECT_EQ(m.at(2, 2), 40.0);
}

TEST(StampTape, OutOfPatternAddIsStillMissedAndOutOfRangeStillThrows) {
  StampedMatrix m = taped_system();
  m.clear();
  m.add(0, 0, 10.0);
  m.add(2, 0, 99.0);  // outside the pattern: counted, not stored
  m.add(0, 1, 20.0);  // the replay resumes where it was
  m.add(1, 1, 30.0);
  m.add(2, 2, 40.0);
  m.add(0, 0, 50.0);
  EXPECT_EQ(m.missed(), 1u);
  EXPECT_EQ(m.tape_position(), 5u);
  EXPECT_EQ(m.at(2, 0), 0.0);
  EXPECT_EQ(m.at(0, 0), 60.0);
  EXPECT_THROW(m.add(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(m.add(0, 3, 1.0), std::out_of_range);
}

TEST(StampTape, BeginAndResetPatternDropTheTape) {
  StampedMatrix m = taped_system();
  m.reset_pattern();
  EXPECT_EQ(m.tape_size(), 0u);
  EXPECT_EQ(m.tape_position(), 0u);

  m = taped_system();
  m.begin_pattern(3);
  EXPECT_EQ(m.tape_size(), 0u);
  EXPECT_EQ(m.tape_position(), 0u);
  // The next discovery pass records its own order, not the old one.
  m.add(2, 2, 1.0);
  m.add(0, 0, 1.0);
  m.finalize_pattern();
  EXPECT_EQ(m.tape_size(), 2u);
  m.clear();
  m.add(2, 2, 7.0);
  m.add(0, 0, 8.0);
  EXPECT_EQ(m.tape_position(), 2u);
  EXPECT_EQ(m.at(2, 2), 7.0);
  EXPECT_EQ(m.at(0, 0), 8.0);
}

// --- tape replay against a fresh discovery pass on real circuits ------------

/// One assembly as the engine makes it: every element, then the gmin
/// diagonal.
void stamp_all(const circuit::Circuit& ckt, const circuit::StampContext& ctx) {
  for (const auto& el : ckt.elements()) el->stamp(ctx);
  for (int node = 1; node < ckt.node_count(); ++node)
    ctx.stamp_jacobian(node, node, ctx.gmin);
}

/// Discover the pattern at x0, then replay the tape in bound mode at x1 and
/// compare it with a fresh discovery pass and a dense assembly at x1.
void expect_replay_matches_fresh(const circuit::Circuit& ckt,
                                 circuit::StampContext ctx, const Vector& x0,
                                 const Vector& x1) {
  const std::size_t n = x0.size();
  StampedMatrix replay;
  Vector b(n);
  ctx.a = nullptr;
  ctx.sa = &replay;
  ctx.b = &b;
  ctx.x = &x0;
  replay.begin_pattern(n);
  stamp_all(ckt, ctx);
  replay.finalize_pattern();
  ctx.x = &x1;
  replay.clear();
  EXPECT_EQ(replay.tape_position(), 0u);
  b.fill(0.0);
  stamp_all(ckt, ctx);
  EXPECT_EQ(replay.missed(), 0u);
  EXPECT_EQ(replay.tape_position(), replay.tape_size());
  EXPECT_GT(replay.tape_size(), replay.nonzeros());

  StampedMatrix fresh;
  Vector b_fresh(n);
  ctx.sa = &fresh;
  ctx.b = &b_fresh;
  fresh.begin_pattern(n);
  stamp_all(ckt, ctx);
  fresh.finalize_pattern();
  // The same pattern, entry for entry, and the same RHS bit for bit. The
  // matrix values are the same sums in another order: discovery merges a
  // coordinate's adds in sorted order, the replay adds them in call order,
  // so a slot with three or more adds may differ in its last bits.
  ASSERT_EQ(replay.row_ptr(), fresh.row_ptr());
  ASSERT_EQ(replay.col_idx(), fresh.col_idx());
  const auto& rp = replay.row_ptr();
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(bits(b[r]), bits(b_fresh[r])) << "rhs row " << r;
    double row_max = 0.0;
    for (std::size_t i = rp[r]; i < rp[r + 1]; ++i)
      row_max = std::max(row_max, std::fabs(fresh.values()[i]));
    for (std::size_t i = rp[r]; i < rp[r + 1]; ++i)
      EXPECT_NEAR(replay.values()[i], fresh.values()[i], 1e-14 * row_max)
          << "slot " << i;
  }

  // Bit for bit: a dense assembly adds in call order, as the searched
  // bound-mode path did before the tape.
  Matrix dense(n, n);
  Vector b_dense(n);
  ctx.sa = nullptr;
  ctx.a = &dense;
  ctx.b = &b_dense;
  stamp_all(ckt, ctx);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = rp[r]; i < rp[r + 1]; ++i)
      EXPECT_EQ(bits(replay.values()[i]), bits(dense(r, replay.col_idx()[i])))
          << "entry (" << r << "," << replay.col_idx()[i] << ")";
}

/// DC mode, then transient mode with each integrator's coefficients, all
/// with the elements' full history (init_state plus one accepted
/// backward-Euler step), so the trapezoidal and Gear-2 branches stamp.
void expect_replay_matches_fresh_in_every_mode(circuit::Circuit& ckt,
                                               const Vector& x0) {
  const std::size_t n = std::size_t(ckt.finalize());
  ASSERT_EQ(x0.size(), n);
  // A second iterate: every unknown moved, as between Newton iterations.
  Vector x1(n);
  for (std::size_t i = 0; i < n; ++i)
    x1[i] = x0[i] * 0.97 + 1e-3 * double(i % 5);

  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kDc;
  ctx.gmin = 1e-9;
  {
    SCOPED_TRACE("dc");
    expect_replay_matches_fresh(ckt, ctx, x0, x1);
  }

  const double h = 1e-12;
  circuit::AcceptContext actx;
  actx.x = &x0;
  actx.node_count = ckt.node_count();
  actx.coeffs.method = circuit::Integrator::kBackwardEuler;
  actx.coeffs.h = h;
  actx.coeffs.a0 = 1.0 / h;
  actx.coeffs.a1 = -1.0 / h;
  for (const auto& el : ckt.elements()) el->init_state(actx);
  for (const auto& el : ckt.elements()) el->accept_step(actx);

  ctx.mode = circuit::AnalysisMode::kTransient;
  ctx.time = 2 * h;
  ctx.gmin = 0.0;
  ctx.coeffs = actx.coeffs;
  {
    SCOPED_TRACE("backward Euler");
    expect_replay_matches_fresh(ckt, ctx, x0, x1);
  }
  ctx.coeffs.method = circuit::Integrator::kTrapezoidal;
  ctx.coeffs.a0 = 2.0 / h;
  ctx.coeffs.a1 = -2.0 / h;
  {
    SCOPED_TRACE("trapezoidal");
    expect_replay_matches_fresh(ckt, ctx, x0, x1);
  }
  // Gear-2 after a step of h / 2: r = 2.
  ctx.coeffs.method = circuit::Integrator::kGear2;
  ctx.coeffs.a0 = 5.0 / (3.0 * h);
  ctx.coeffs.a1 = -3.0 / h;
  ctx.coeffs.a2 = 4.0 / (3.0 * h);
  {
    SCOPED_TRACE("Gear-2");
    expect_replay_matches_fresh(ckt, ctx, x0, x1);
  }
}

TEST(StampTape, ReplayMatchesFreshDiscoveryOnUnfoldedTestbench) {
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 6;
  for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
  auto bench = circuit::make_ssn_testbench(spec);
  ASSERT_EQ(bench.circuit.finalize(), 4 + 3 * spec.n_drivers);
  const double t_mid = spec.input_rise_time / 2;
  const Vector x0 = sim::dc_operating_point(bench.circuit, t_mid).solution;
  expect_replay_matches_fresh_in_every_mode(bench.circuit, x0);
}

TEST(StampTape, ReplayMatchesFreshDiscoveryOnParsedStaggeredNetlist) {
  auto parsed = circuit::parse_netlist_ex(R"(* staggered drivers
.model NDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 GAMMA=0.35 PHI2F=0.85 CLM=0.05
.model PDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 GAMMA=0.35 PHI2F=0.85 CLM=0.05 PMOS
Vdd vdd 0 DC 1.8
Lgnd vssi 0 5e-09
Cpad vssi 0 1e-12
Vin0 in0 0 RAMP(0 1.8 1.7e-10 1e-10)
Mn0 out0 in0 vssi 0 NDRV W=1.09
Mp0 out0 in0 vdd vdd PDRV W=0.87
Cl0 out0 0 10p
Ranchor0 out0 vdd 10meg
Vin1 in1 0 RAMP(0 1.8 0.3e-10 1e-10)
Mn1 out1 in1 vssi 0 NDRV W=1.13
Mp1 out1 in1 vdd vdd PDRV W=0.90
Cl1 out1 0 10p
Ranchor1 out1 vdd 10meg
Vin2 in2 0 RAMP(0 1.8 0.9e-10 1e-10)
Mn2 out2 in2 vssi 0 NDRV W=0.97
Mp2 out2 in2 vdd vdd PDRV W=0.78
Cl2 out2 0 10p
Ranchor2 out2 vdd 10meg
.tran 5e-13 3e-10
.end
)");
  ASSERT_TRUE(parsed.ok);
  circuit::Circuit ckt = std::move(parsed.netlist.circuit);
  const Vector x0 = sim::dc_operating_point(ckt, 1.5e-10).solution;
  expect_replay_matches_fresh_in_every_mode(ckt, x0);
}

TEST(StampTape, ReplayMatchesFreshDiscoveryWithCoupledInductors) {
  // Two coupled supply pins into one on-chip rail, driven through a
  // resistor and loaded by a capacitor: both windings and their cross
  // terms stamp, and the trapezoidal branch is its own path.
  circuit::Circuit ckt;
  const circuit::NodeId in = ckt.node("in");
  const circuit::NodeId rail = ckt.node("rail");
  const circuit::NodeId a = ckt.node("a");
  const circuit::NodeId b = ckt.node("b");
  ckt.add_vsource("V1", in, circuit::kGround, waveform::Dc{1.8});
  ckt.add_resistor("R1", in, a, 5.0);
  ckt.add_resistor("R2", in, b, 7.0);
  ckt.add_coupled_inductors("K1", a, rail, b, rail, 4e-9, 3e-9, 0.6);
  ckt.add_capacitor("C1", rail, circuit::kGround, 2e-12);
  ckt.add_resistor("Rload", rail, circuit::kGround, 50.0);
  const Vector x0 = sim::dc_operating_point(ckt).solution;
  expect_replay_matches_fresh_in_every_mode(ckt, x0);
}

// --- the engine's drift repair ---------------------------------------------

/// A conductance from `a` to ground plus an explicit zero coupling a -> b.
/// A drifting one leaves the zero out of its first stamp, so every later
/// stamp adds a coordinate outside the pattern its first call discovered:
/// the element-model bug the engine's drift repair exists for. The values
/// never differ, so a drifting circuit must simulate like a clean one.
class ZeroCouplingConductance final : public circuit::Element {
 public:
  ZeroCouplingConductance(std::string name, circuit::NodeId a,
                          circuit::NodeId b, double g, bool drift)
      : Element(std::move(name)), a_(a), b_(b), g_(g), drift_(drift) {}
  std::vector<circuit::NodeId> nodes() const override { return {a_, b_}; }
  void stamp(const circuit::StampContext& ctx) const override {
    ctx.stamp_conductance(a_, circuit::kGround, g_);
    if (!drift_ || stamps_++ > 0) ctx.stamp_jacobian(a_, b_, 0.0);
  }

 private:
  circuit::NodeId a_, b_;
  double g_;
  bool drift_;
  mutable int stamps_ = 0;
};

/// A transient whose DC point takes two Newton iterations, so a drifting
/// element's second stamp lands in a bound-mode assembly.
sim::TransientRun run_zero_coupling_circuit(bool drift) {
  circuit::Circuit ckt;
  const circuit::NodeId in = ckt.node("in");
  const circuit::NodeId a = ckt.node("a");
  const circuit::NodeId b = ckt.node("b");
  ckt.add_vsource("V1", in, circuit::kGround,
                  waveform::Pwl{{{0.0, 0.9}, {1e-10, 1.8}, {1e-9, 1.8}}});
  ckt.add_resistor("R1", in, a, 50.0);
  ckt.add_capacitor("C1", a, circuit::kGround, 1e-12);
  ckt.add_resistor("R2", in, b, 100.0);  // b shares no entry with a
  ckt.add_capacitor("C2", b, circuit::kGround, 2e-12);
  ckt.add_element(std::make_unique<ZeroCouplingConductance>("G1", a, b, 1e-3, drift));
  sim::TransientOptions opts;
  opts.t_stop = 0.5e-9;
  return sim::run_transient_ex(ckt, opts);
}

TEST(StampPlan, DriftRepairIsCountedAndMatchesCleanRun) {
#ifndef NDEBUG
  GTEST_SKIP() << "the engine asserts on pattern drift in builds with asserts";
#else
  const sim::TransientRun clean = run_zero_coupling_circuit(false);
  const sim::TransientRun drifted = run_zero_coupling_circuit(true);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(drifted.ok());
  EXPECT_EQ(clean.result.stats.pattern_rebuilds, 0u);
  EXPECT_GE(drifted.result.stats.pattern_rebuilds, 1u);
  // The rebuilt pattern is the clean one; only the first Newton iteration
  // factored the smaller pattern, so the waveforms agree to round-off.
  ASSERT_EQ(drifted.result.point_count(), clean.result.point_count());
  for (const std::string node : {"a", "b"}) {
    const waveform::Waveform want = clean.result.waveform(node);
    const waveform::Waveform got = drifted.result.waveform(node);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(got.values()[i], want.values()[i], 1e-12)
          << node << " point " << i;
  }
#endif
}

// --- SparseFactor -----------------------------------------------------------

StampedMatrix small_system() {
  // Unsymmetric, needs pivoting on column 0 (zero diagonal head).
  StampedMatrix m;
  m.begin_pattern(3);
  m.add(0, 0, 0.0);  // exact zero kept in the pattern
  m.add(0, 1, 2.0);
  m.add(1, 0, 1.0);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 3.0);
  m.finalize_pattern();
  return m;
}

TEST(SparseFactor, AgreesWithDenseLu) {
  StampedMatrix m = small_system();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));
  EXPECT_FALSE(f.singular());
  EXPECT_EQ(f.pattern_epoch(), m.epoch());

  Vector b(3);
  b[0] = 1.0;
  b[1] = -2.0;
  b[2] = 0.5;
  Vector x(3);
  f.solve(b, x);

  const Vector want = numeric::LuFactorization(m.to_dense()).solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], want[i], 1e-12);
}

TEST(SparseFactor, RefactorizeMatchesFreshFactorize) {
  StampedMatrix m = small_system();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));

  // New values, same pattern (the exact-zero slot stays zero).
  m.clear();
  m.add(0, 1, 5.0);
  m.add(1, 0, 2.0);
  m.add(1, 2, -1.0);
  m.add(2, 1, 0.5);
  m.add(2, 2, 4.0);
  ASSERT_TRUE(f.refactorize(m));

  Vector b(3);
  b[0] = 3.0;
  b[1] = 1.0;
  b[2] = -1.0;
  Vector x_re(3);
  f.solve(b, x_re);

  SparseFactor fresh;
  ASSERT_TRUE(fresh.factorize(m));
  Vector x_fresh(3);
  fresh.solve(b, x_fresh);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x_re[i], x_fresh[i], 1e-12);

  // Residual check against the matrix itself.
  Vector ax(3);
  m.mul_into(x_re, ax);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(SparseFactor, RefactorizeRejectsStaleEpoch) {
  StampedMatrix m = small_system();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));

  // Rediscovering the pattern bumps the epoch; the old symbolic analysis
  // must refuse to replay over it.
  m.begin_pattern(3);
  m.add(0, 1, 2.0);
  m.add(1, 0, 1.0);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 3.0);
  m.finalize_pattern();
  EXPECT_FALSE(f.refactorize(m));
}

TEST(SparseFactor, SingularMatrixReportsAndThrows) {
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 1.0);
  m.add(0, 1, 2.0);
  m.add(1, 0, 2.0);
  m.add(1, 1, 4.0);  // row 1 = 2 * row 0
  m.finalize_pattern();

  SparseFactor f;
  EXPECT_FALSE(f.factorize(m));
  EXPECT_TRUE(f.singular());
  Vector b(2);
  b[0] = 1.0;
  b[1] = 1.0;
  Vector x(2);
  EXPECT_THROW(f.solve(b, x), support::SolverError);
}

TEST(SparseFactor, RefactorizeFlagsDegradedPivot) {
  // Factorize with a healthy diagonal, then refill with values that make
  // the frozen pivot catastrophically small relative to its column — the
  // numeric replay must report failure so the caller re-factorizes.
  StampedMatrix m;
  m.begin_pattern(2);
  m.add(0, 0, 4.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 4.0);
  m.finalize_pattern();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));

  m.clear();
  m.add(0, 0, 1e-14);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1e-14);
  const bool ok = f.refactorize(m);
  if (ok) {
    // Tolerated: then the solve must still be accurate.
    Vector b(2);
    b[0] = 1.0;
    b[1] = 2.0;
    Vector x(2);
    f.solve(b, x);
    Vector ax(2);
    m.mul_into(x, ax);
    EXPECT_NEAR(ax[0], b[0], 1e-6);
    EXPECT_NEAR(ax[1], b[1], 1e-6);
  } else {
    // Degradation flagged: a fresh factorization (new pivots) succeeds.
    SparseFactor fresh;
    EXPECT_TRUE(fresh.factorize(m));
  }
}

}  // namespace
