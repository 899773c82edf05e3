// SparseFactor's fill-reducing column order, checked against the dense LU
// it must agree with: ordered solve and solve_transpose on small
// hand-built systems, on the DC and transient Jacobians of unfolded parsed
// netlists, and on random unsymmetric MNA-like systems whose branch rows
// have structurally zero diagonals. Then the property the order exists for
// — a transient factorization of an unfolded netlist stores at most one
// entry per unknown beyond the matrix's own — and the degraded-pivot
// fallback, which re-factorizes on the same pattern.
#include "circuit/elements.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/testbench.hpp"
#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace {

using namespace ssnkit;
using numeric::LuFactorization;
using numeric::Matrix;
using numeric::SparseFactor;
using numeric::StampedMatrix;
using numeric::Vector;

/// SplitMix64: a portable deterministic stream for the generated inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * double(next() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }

 private:
  std::uint64_t state_;
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

constexpr double kRise = 1e-10;

/// N distinct inverters on one inductive ground: every driver gets its own
/// input delay in [0, 2 t_r] and width in 1 +- 0.2, so none fold. The
/// .tran step is t_r / 200.
std::string unfolded_netlist(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s = "* unfolded drivers\n";
  s += ".model NDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 "
       "GAMMA=0.35 PHI2F=0.85 CLM=0.05\n";
  s += ".model PDRV ALPHA VDD=1.8 VT0=0.45 ALPHA=1.3 ID0=6.5m VD0=0.9 "
       "GAMMA=0.35 PHI2F=0.85 CLM=0.05 PMOS\n";
  s += "Vdd vdd 0 DC 1.8\nLgnd vssi 0 5n\nCpad vssi 0 1p\n";
  double t_end = 0.0;
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    const double delay = rng.uniform(0.0, 2.0 * kRise);
    const double w = rng.uniform(0.8, 1.2);
    t_end = std::max(t_end, delay + kRise);
    s += "Vin" + k + " in" + k + " 0 RAMP(0 1.8 " + fmt(delay) + " " +
         fmt(kRise) + ")\n";
    s += "Mn" + k + " out" + k + " in" + k + " vssi 0 NDRV W=" + fmt(w) + "\n";
    s += "Mp" + k + " out" + k + " in" + k + " vdd vdd PDRV W=" +
         fmt(0.8 * w) + "\n";
    s += "Cl" + k + " out" + k + " 0 10p\n";
    s += "Ranchor" + k + " out" + k + " vdd 10meg\n";
  }
  s += ".tran " + fmt(kRise / 200) + " " + fmt(t_end) + "\n.end\n";
  return s;
}

circuit::ParsedNetlist parse(int n) {
  auto parsed = circuit::parse_netlist_ex(unfolded_netlist(n, 1000u + unsigned(n)));
  EXPECT_TRUE(parsed.ok);
  parsed.netlist.circuit.finalize();
  return std::move(parsed.netlist);
}

/// The Jacobian the engine factors at time t: every element stamped at the
/// DC point of t, plus the (inactive) gmin diagonal. Transient mode adds
/// backward-Euler companions at h = t_r / 200.
StampedMatrix jacobian(circuit::Circuit& ckt, circuit::AnalysisMode mode,
                       double t) {
  const Vector x = sim::dc_operating_point(ckt, t).solution;
  circuit::AcceptContext actx;
  actx.x = &x;
  actx.node_count = ckt.node_count();
  for (const auto& el : ckt.elements()) el->init_state(actx);
  const std::size_t n = std::size_t(ckt.unknown_count());
  StampedMatrix m;
  Vector b(n);
  circuit::StampContext ctx;
  ctx.mode = mode;
  ctx.time = t;
  ctx.coeffs.h = kRise / 200;
  ctx.coeffs.a0 = 1.0 / ctx.coeffs.h;
  ctx.coeffs.a1 = -ctx.coeffs.a0;
  ctx.x = &x;
  ctx.sa = &m;
  ctx.b = &b;
  m.begin_pattern(n);
  for (const auto& el : ckt.elements()) el->stamp(ctx);
  for (int node = 1; node < ckt.node_count(); ++node)
    m.add(std::size_t(node - 1), std::size_t(node - 1), 0.0);
  m.finalize_pattern();
  return m;
}

/// A right-hand side with every entry nonzero and of mixed sign.
Vector rhs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
  return b;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

/// `f` (already factored for `m`) solves A x = b and A^T x = b like the
/// dense LU of A and of A^T. Both are backward-stable, so they agree to a
/// few ulps times the condition number, far inside 1e-11 for these systems.
void expect_matches_dense(const SparseFactor& f, const StampedMatrix& m,
                          std::uint64_t seed) {
  const Matrix dense = m.to_dense();
  const std::size_t n = m.size();
  const Vector b = rhs(n, seed);
  const LuFactorization lu(dense);
  const LuFactorization lu_t(dense.transposed());
  ASSERT_FALSE(lu.singular());
  ASSERT_FALSE(lu_t.singular());

  Vector x;
  f.solve(b, x);
  const Vector want = lu.solve(b);
  EXPECT_LE(max_abs_diff(x, want), 1e-11 * std::max(1.0, want.norm_inf()))
      << "solve, n = " << n;

  Vector xt;
  f.solve_transpose(b, xt);
  const Vector want_t = lu_t.solve(b);
  EXPECT_LE(max_abs_diff(xt, want_t), 1e-11 * std::max(1.0, want_t.norm_inf()))
      << "solve_transpose, n = " << n;
}

// --- differential: hand-built systems ---------------------------------------

TEST(SparseOrder, HandBuiltSystemsMatchDense) {
  {
    // Unsymmetric with a zero diagonal head (kept as an exact zero).
    StampedMatrix m;
    m.begin_pattern(3);
    m.add(0, 0, 0.0);
    m.add(0, 1, 2.0);
    m.add(1, 0, 1.0);
    m.add(1, 2, 1.0);
    m.add(2, 1, 1.0);
    m.add(2, 2, 3.0);
    m.finalize_pattern();
    SparseFactor f;
    ASSERT_TRUE(f.factorize(m));
    expect_matches_dense(f, m, 1);
  }
  {
    // An arrow matrix: one hub row and column touching every unknown —
    // the shape natural order fills completely when the hub comes first.
    const std::size_t n = 40;
    StampedMatrix m;
    m.begin_pattern(n);
    for (std::size_t i = 0; i < n; ++i) {
      m.add(i, i, 4.0 + double(i % 3));
      if (i > 0) {
        m.add(0, i, -1.0);
        m.add(i, 0, 0.5);
      }
    }
    m.finalize_pattern();
    SparseFactor f;
    ASSERT_TRUE(f.factorize(m));
    EXPECT_LE(f.factor_nonzeros(), m.nonzeros());  // hub last: no fill
    expect_matches_dense(f, m, 2);
  }
}

// The SparseLu suite holds the two sparse LU structure checks by their
// long-standing names; both run on SparseFactor, the engine's sparse LU.

TEST(SparseLu, TridiagonalHasLinearFill) {
  // Tridiagonal: factors with no fill at all — the point of sparsity.
  const std::size_t n = 200;
  StampedMatrix m;
  m.begin_pattern(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 4.0);
    if (i > 0) m.add(i, i - 1, -1.0);
    if (i + 1 < n) m.add(i, i + 1, -1.0);
  }
  m.finalize_pattern();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));
  EXPECT_LE(f.factor_nonzeros(), m.nonzeros());
  expect_matches_dense(f, m, 3);
}

TEST(SparseLu, PermutedIdentity) {
  // Every diagonal entry structurally zero, so each column's only
  // candidate pivot is off the diagonal.
  const std::size_t n = 20;
  StampedMatrix m;
  m.begin_pattern(n);
  for (std::size_t i = 0; i < n; ++i) m.add(i, (i + 7) % n, 1.0);
  m.finalize_pattern();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = double(i);
  Vector x;
  f.solve(b, x);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[(i + 7) % n], double(i), 1e-12);
  expect_matches_dense(f, m, 4);
}

TEST(SparseOrder, StaggeredTestbenchJacobiansMatchDense) {
  // The stamp-plan test's six-driver bench, every driver unfolded.
  circuit::SsnBenchSpec spec;
  spec.n_drivers = 6;
  for (int i = 0; i < spec.n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
  auto bench = circuit::make_ssn_testbench(spec);
  bench.circuit.finalize();
  for (const auto mode :
       {circuit::AnalysisMode::kDc, circuit::AnalysisMode::kTransient}) {
    const StampedMatrix m = jacobian(bench.circuit, mode, 0.5 * kRise);
    SparseFactor f;
    ASSERT_TRUE(f.factorize(m));
    expect_matches_dense(f, m, 3);
  }
}

// --- differential: unfolded netlists ----------------------------------------

TEST(SparseOrder, UnfoldedNetlistJacobiansMatchDense) {
  for (const int n : {8, 32, 128}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    auto net = parse(n);
    for (const auto mode :
         {circuit::AnalysisMode::kDc, circuit::AnalysisMode::kTransient}) {
      SCOPED_TRACE(mode == circuit::AnalysisMode::kDc ? "DC" : "transient");
      const StampedMatrix m = jacobian(net.circuit, mode, kRise);
      SparseFactor f;
      ASSERT_TRUE(f.factorize(m));
      expect_matches_dense(f, m, std::uint64_t(n));
    }
  }
}

TEST(SparseOrder, RefactorizeWithFreshValuesMatchesDense) {
  // Factor the transient Jacobian early in the edge, then replay the
  // frozen order and pivots over the values of a later point.
  for (const int n : {8, 32, 128}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    auto net = parse(n);
    StampedMatrix m =
        jacobian(net.circuit, circuit::AnalysisMode::kTransient, 0.5 * kRise);
    SparseFactor f;
    ASSERT_TRUE(f.factorize(m));

    const StampedMatrix later =
        jacobian(net.circuit, circuit::AnalysisMode::kTransient, 2.0 * kRise);
    ASSERT_EQ(later.nonzeros(), m.nonzeros());
    m.clear();
    for (std::size_t r = 0; r < m.size(); ++r)
      for (std::size_t p = later.row_ptr()[r]; p < later.row_ptr()[r + 1]; ++p)
        m.add(r, later.col_idx()[p], later.values()[p]);
    ASSERT_EQ(m.missed(), 0u);
    ASSERT_TRUE(f.refactorize(m));
    expect_matches_dense(f, m, std::uint64_t(n) + 1);
  }
}

// --- differential: random MNA-like systems ----------------------------------

/// n_nodes node rows plus one branch row per voltage source. Nodes have a
/// conductance to ground and random two-terminal conductances, a few
/// one-way transconductances break the symmetry, and two hub nodes touch
/// a third of all nodes. Each source ties a distinct node to ground through
/// a branch row whose diagonal is structurally zero.
StampedMatrix random_mna(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t nodes = 10 + rng.below(110);
  const std::size_t sources = 1 + rng.below(nodes / 3);
  const std::size_t n = nodes + sources;
  StampedMatrix m;
  m.begin_pattern(n);
  const auto conductance = [&](std::size_t a, std::size_t b, double g) {
    m.add(a, a, g);
    m.add(b, b, g);
    m.add(a, b, -g);
    m.add(b, a, -g);
  };
  for (std::size_t i = 0; i < nodes; ++i) {
    m.add(i, i, rng.uniform(1e-3, 1.0));
    for (int e = 0; e < 2; ++e) {
      const std::size_t j = rng.below(nodes);
      if (j != i) conductance(i, j, rng.uniform(1e-3, 10.0));
    }
    if (rng.below(4) == 0) m.add(i, rng.below(nodes), rng.uniform(-5.0, 5.0));
    for (std::size_t hub = 0; hub < 2; ++hub)
      if (i != hub && rng.below(3) == 0) conductance(i, hub, rng.uniform(0.1, 2.0));
  }
  for (std::size_t k = 0; k < sources; ++k) {
    const std::size_t node = nodes - 1 - k;  // distinct nodes
    const std::size_t br = nodes + k;
    m.add(node, br, 1.0);
    m.add(br, node, 1.0);
  }
  m.finalize_pattern();
  return m;
}

TEST(SparseOrder, RandomMnaSystemsMatchDense) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const StampedMatrix m = random_mna(seed);
    SparseFactor f;
    ASSERT_TRUE(f.factorize(m));
    expect_matches_dense(f, m, seed);
  }
}

// --- the fill the order exists to prevent -----------------------------------

TEST(SparseOrder, TransientFactorOfUnfoldedNetlistsHasNoFill) {
  // Natural order eliminated the supply-rail columns first and filled the
  // transient factor quadratically in N (5,192 entries for 535 at N = 48).
  for (const int n : {8, 48, 128}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    auto net = parse(n);
    sim::TransientOptions opts;
    opts.t_stop = net.tran->tstop;
    opts.dt_initial = net.tran->tstep;
    const auto run = sim::run_transient_ex(net.circuit, opts);
    ASSERT_TRUE(run.ok()) << run.error->what();
    const sim::SolverStats& s = run.result.stats;
    const std::size_t unknowns = std::size_t(net.circuit.unknown_count());
    EXPECT_GT(s.matrix_nonzeros, 3 * unknowns);
    EXPECT_LE(s.factor_nonzeros, s.matrix_nonzeros + unknowns);
  }
}

// --- degraded-pivot fallback ------------------------------------------------

/// Pairs of unknowns (2i, 2i + 1) with d on both diagonals and 1 off them,
/// each pair tied weakly to a hub unknown. d = 4 pivots on the diagonal;
/// d = 1e-14 needs the other row of each pair, yet is just as well
/// conditioned.
void stamp_pairs(StampedMatrix& m, std::size_t pairs, double d) {
  const std::size_t hub = 2 * pairs;
  m.add(hub, hub, 3.0);
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::size_t a = 2 * i, b = a + 1;
    m.add(a, a, d);
    m.add(b, b, d);
    m.add(a, b, 1.0);
    m.add(b, a, 1.0);
    m.add(hub, a, 0.01);
    m.add(b, hub, -0.01);
  }
}

TEST(SparseOrder, DegradedPivotRefactorizationKeepsOrderAndSolves) {
  // Refilling the pairs with d = 1e-14 collapses every frozen pivot
  // against its column, so refactorize refuses and the engine's fallback
  // re-factorizes on the same epoch. That must solve like dense LU, and
  // bit for bit like a fresh factor that orders the pattern anew.
  const std::size_t pairs = 20;
  StampedMatrix m;
  m.begin_pattern(2 * pairs + 1);
  stamp_pairs(m, pairs, 4.0);
  m.finalize_pattern();
  SparseFactor f;
  ASSERT_TRUE(f.factorize(m));
  const std::size_t epoch = m.epoch();

  m.clear();
  stamp_pairs(m, pairs, 1e-14);
  ASSERT_EQ(m.epoch(), epoch);
  ASSERT_FALSE(f.refactorize(m));
  ASSERT_TRUE(f.factorize(m));
  EXPECT_EQ(f.pattern_epoch(), epoch);
  expect_matches_dense(f, m, 11);

  SparseFactor fresh;
  ASSERT_TRUE(fresh.factorize(m));
  EXPECT_EQ(fresh.factor_nonzeros(), f.factor_nonzeros());
  const Vector b = rhs(m.size(), 12);
  Vector x, x_fresh;
  f.solve(b, x);
  fresh.solve(b, x_fresh);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(x[i], x_fresh[i]) << "unknown " << i;
}

TEST(SparseOrder, FactorizeOnAnotherPatternWithTheSameEpochReorders) {
  // Epochs count per matrix, so two matrices can share one. A factor moved
  // to a different pattern must order it afresh, not replay the old order.
  StampedMatrix arrow_head, arrow_tail;
  const std::size_t n = 12;
  for (StampedMatrix* m : {&arrow_head, &arrow_tail}) {
    const std::size_t hub = m == &arrow_head ? 0 : n - 1;
    m->begin_pattern(n);
    for (std::size_t i = 0; i < n; ++i) {
      m->add(i, i, 3.0);
      if (i != hub) {
        m->add(hub, i, 1.0);
        m->add(i, hub, -1.0);
      }
    }
    m->finalize_pattern();
  }
  ASSERT_EQ(arrow_head.epoch(), arrow_tail.epoch());
  SparseFactor f;
  ASSERT_TRUE(f.factorize(arrow_head));
  ASSERT_TRUE(f.factorize(arrow_tail));
  expect_matches_dense(f, arrow_tail, 7);
  EXPECT_LE(f.factor_nonzeros(), arrow_tail.nonzeros());
}

}  // namespace
