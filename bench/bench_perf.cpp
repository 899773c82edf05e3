// Performance microbenchmarks (google-benchmark): the cost profile that
// makes the paper's closed forms attractive — a Table 1 evaluation is
// nanoseconds while a single transient simulation is milliseconds — plus
// the solver hot-path suite (sparse stamping and refactorization, transient
// solves at several sizes, Monte Carlo batches at several thread counts).
// scripts/bench.sh runs this binary and emits BENCH_perf.json.
#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "analysis/montecarlo.hpp"
#include "core/baselines.hpp"
#include "core/l_only_model.hpp"
#include "core/lc_model.hpp"
#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "circuit/testbench.hpp"
#include "devices/fit.hpp"
#include "numeric/lu.hpp"
#include "numeric/normal_stream.hpp"
#include "numeric/sparse.hpp"
#include "sim/engine.hpp"

#include <benchmark/benchmark.h>

#include <random>

using namespace ssnkit;

namespace {

core::SsnScenario scenario_for(int n, double c_mult) {
  core::SsnScenario s;
  s.n_drivers = n;
  s.inductance = 5e-9;
  s.vdd = 1.8;
  s.slope = 1.8e10;
  s.device = {.k = 5.3e-3, .lambda = 1.17, .vx = 0.56};
  s.capacitance = s.critical_capacitance() * c_mult;
  return s;
}

void BM_LOnlyVmax(benchmark::State& state) {
  const auto s = scenario_for(8, 0.0).with_capacitance(0.0);
  for (auto _ : state) {
    core::LOnlyModel m(s);
    benchmark::DoNotOptimize(m.v_max());
  }
}
BENCHMARK(BM_LOnlyVmax);

void BM_LcVmax(benchmark::State& state) {
  const auto s = scenario_for(8, double(state.range(0)) / 10.0);
  for (auto _ : state) {
    core::LcModel m(s);
    benchmark::DoNotOptimize(m.v_max());
  }
}
BENCHMARK(BM_LcVmax)->Arg(3)->Arg(10)->Arg(40);  // over/critical/under damped

void BM_BaselineVemuru(benchmark::State& state) {
  core::BaselineInputs in;
  in.n_drivers = 8;
  in.inductance = 5e-9;
  in.slope = 1.8e10;
  in.vdd = 1.8;
  in.b = 4.4e-3;
  in.vt = 0.45;
  in.alpha = 1.3;
  for (auto _ : state) benchmark::DoNotOptimize(core::vemuru_vmax(in));
}
BENCHMARK(BM_BaselineVemuru);

void BM_AsdmFit(benchmark::State& state) {
  const auto tech = process::tech_180nm();
  const auto golden = tech.make_golden();
  devices::AsdmFitRegion region;
  region.vd = tech.vdd;
  region.vg_lo = 0.45 * tech.vdd;
  region.vg_hi = tech.vdd;
  region.vs_hi = 0.45 * tech.vdd;
  for (auto _ : state)
    benchmark::DoNotOptimize(devices::fit_asdm(*golden, region));
}
BENCHMARK(BM_AsdmFit);

void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  numeric::Matrix a(n, n);
  numeric::Vector b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = dist(rng);
    a(r, r) += 4.0;
    b[r] = dist(rng);
  }
  for (auto _ : state) {
    numeric::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  state.SetComplexityN(int64_t(n));
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(32)->Arg(128)->Complexity(benchmark::oNCubed);

void BM_SsnTransient(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  for (auto _ : state) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = int(state.range(0));
    spec.input_rise_time = 0.1e-9;
    const auto m = analysis::measure_ssn(spec);
    if (m.degraded()) {
      state.SkipWithError("transient did not reach full-device fidelity");
      break;
    }
    benchmark::DoNotOptimize(m.measurement.v_max);
  }
}
BENCHMARK(BM_SsnTransient)->Arg(2)->Arg(8)->Arg(24)->Arg(48)->Unit(benchmark::kMillisecond);

// Trust-layer overhead: the same transient with the per-step residual
// check + per-epoch condition estimate disabled. The acceptance bar is
// BM_SsnTransient/N within 5% of BM_SsnTransientUnverified/N — the checks
// reuse the step's own CSR arrays, so the delta should be noise-level.
void BM_SsnTransientUnverified(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  for (auto _ : state) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = int(state.range(0));
    spec.input_rise_time = 0.1e-9;
    analysis::MeasureOptions mo;
    mo.transient.verify.enabled = false;
    const auto m = analysis::measure_ssn(spec, mo);
    if (m.degraded()) {
      state.SkipWithError("transient did not reach full-device fidelity");
      break;
    }
    benchmark::DoNotOptimize(m.measurement.v_max);
  }
}
BENCHMARK(BM_SsnTransientUnverified)
    ->Arg(8)
    ->Arg(24)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

// --- solver hot path: one Newton iteration's linear-algebra cost ----------
//
// The engine's path: stamp into the cached CSR pattern, numerically
// refactorize on the frozen pivot order, and solve.

struct AssemblyFixture {
  circuit::SsnBench bench;
  numeric::Vector x;  ///< DC solution: a realistic stamping point
  std::size_t n = 0;

  // A distinct input delay per driver keeps every driver unfolded, so the
  // matrix really grows with N (identical drivers fold into one).
  explicit AssemblyFixture(int n_drivers)
      : bench([&] {
          circuit::SsnBenchSpec spec;
          spec.n_drivers = n_drivers;
          for (int i = 0; i < n_drivers; ++i) spec.stagger.push_back(double(i) * 1e-12);
          return circuit::make_ssn_testbench(spec);
        }()) {
    x = sim::dc_operating_point(bench.circuit).solution;
    n = std::size_t(bench.circuit.unknown_count());
  }
};

void BM_MnaAssemblySparse(benchmark::State& state) {
  AssemblyFixture fx(int(state.range(0)));
  numeric::StampedMatrix sm;
  numeric::Vector b(fx.n);
  numeric::Vector x_out(fx.n);
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kDc;
  ctx.x = &fx.x;
  ctx.sa = &sm;
  ctx.b = &b;
  // Pattern discovery + symbolic analysis: once, outside the timed loop —
  // exactly as the engine amortizes them across Newton iterations.
  sm.begin_pattern(fx.n);
  for (const auto& el : fx.bench.circuit.elements()) el->stamp(ctx);
  sm.finalize_pattern();
  numeric::SparseFactor factor;
  factor.factorize(sm);
  for (auto _ : state) {
    sm.clear();
    b.fill(0.0);
    for (const auto& el : fx.bench.circuit.elements()) el->stamp(ctx);
    factor.refactorize(sm);
    factor.solve(b, x_out);
    benchmark::DoNotOptimize(x_out);
  }
}
BENCHMARK(BM_MnaAssemblySparse)
    ->Arg(4)
    ->Arg(12)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

// The transient Jacobian, where LU fill lives: the DC Jacobian stamps no
// capacitor companions and factors without fill in natural order too, so
// BM_MnaAssemblySparse cannot see the column order. This one stamps the unfolded
// bench mid-edge (the DC point at t_r / 2) with backward-Euler companions
// at h = t_r / 200, the step a parsed netlist's .tran takes.
struct TransientJacobian {
  AssemblyFixture fx;
  numeric::StampedMatrix sm;
  numeric::Vector b;
  numeric::Vector x;  ///< the iterate every stamp is taken at
  circuit::StampContext ctx;

  explicit TransientJacobian(int n_drivers) : fx(n_drivers), b(fx.n) {
    const double tr = circuit::SsnBenchSpec{}.input_rise_time;
    x = sim::dc_operating_point(fx.bench.circuit, tr / 2).solution;
    circuit::AcceptContext actx;
    actx.x = &x;
    actx.node_count = fx.bench.circuit.node_count();
    for (const auto& el : fx.bench.circuit.elements()) el->init_state(actx);
    ctx.mode = circuit::AnalysisMode::kTransient;
    ctx.time = tr / 2;
    ctx.coeffs.h = tr / 200;
    ctx.coeffs.a0 = 1.0 / ctx.coeffs.h;
    ctx.coeffs.a1 = -ctx.coeffs.a0;
    ctx.x = &x;
    ctx.sa = &sm;
    ctx.b = &b;
    sm.begin_pattern(fx.n);
    stamp();
    sm.finalize_pattern();
  }
  TransientJacobian(const TransientJacobian&) = delete;  // ctx points inside
  TransientJacobian& operator=(const TransientJacobian&) = delete;

  /// One assembly's adds, as the engine makes them: every element, then
  /// the (inactive) gmin diagonal, so the pattern is the engine's pattern.
  void stamp() {
    for (const auto& el : fx.bench.circuit.elements()) el->stamp(ctx);
    for (int node = 1; node < fx.bench.circuit.node_count(); ++node)
      sm.add(std::size_t(node - 1), std::size_t(node - 1), 0.0);
  }
};

// Per Newton iteration: one bound-mode assembly of the transient Jacobian
// (clear, element stamps with their device evaluations, gmin diagonal) —
// the layer BM_TransientRefactor leaves out.
void BM_TransientStamp(benchmark::State& state) {
  TransientJacobian tj(int(state.range(0)));
  for (auto _ : state) {
    tj.sm.clear();
    tj.b.fill(0.0);
    tj.stamp();
    benchmark::DoNotOptimize(tj.sm.values().data());
    benchmark::ClobberMemory();
  }
  state.counters["matrix_nnz"] = double(tj.sm.nonzeros());
}
BENCHMARK(BM_TransientStamp)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Per Newton iteration: numeric refactorization over the frozen order and
// pivots, then one solve.
void BM_TransientRefactor(benchmark::State& state) {
  TransientJacobian tj(int(state.range(0)));
  numeric::SparseFactor factor;
  factor.factorize(tj.sm);
  numeric::Vector x_out(tj.fx.n);
  for (auto _ : state) {
    factor.refactorize(tj.sm);
    factor.solve(tj.b, x_out);
    benchmark::DoNotOptimize(x_out.data());
    benchmark::ClobberMemory();
  }
  state.counters["factor_nnz"] = double(factor.factor_nonzeros());
  state.counters["matrix_nnz"] = double(tj.sm.nonzeros());
}
BENCHMARK(BM_TransientRefactor)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Once per pattern: the full factorization of a fresh factor, column
// ordering included.
void BM_TransientFactorize(benchmark::State& state) {
  TransientJacobian tj(int(state.range(0)));
  std::size_t fill = 0;
  for (auto _ : state) {
    numeric::SparseFactor factor;
    benchmark::DoNotOptimize(factor.factorize(tj.sm));
    fill = factor.factor_nonzeros();
  }
  state.counters["factor_nnz"] = double(fill);
  state.counters["matrix_nnz"] = double(tj.sm.nonzeros());
}
BENCHMARK(BM_TransientFactorize)
    ->Arg(256)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// --- batch runner: Monte Carlo at several sample/thread counts ------------

void BM_McClosedForm(benchmark::State& state) {
  const auto s = scenario_for(8, 1.0);
  analysis::MonteCarloOptions opts;
  opts.samples = int(state.range(0));
  opts.threads = int(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::monte_carlo_vmax(s, opts));
}
BENCHMARK(BM_McClosedForm)
    ->Args({2000, 1})  // the serve request's shape: 2000 samples, 1 thread
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Unit(benchmark::kMillisecond);

// The 12,000 normals of a 2000-sample LC Monte Carlo (6 factors a sample),
// from numeric::NormalStream and from the std:: pair it reproduces.
constexpr int kMcNormals = 12000;

void BM_NormalStream(benchmark::State& state) {
  for (auto _ : state) {
    numeric::NormalStream gauss(12345);
    double sum = 0.0;
    for (int i = 0; i < kMcNormals; ++i) sum += gauss.next();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NormalStream)->Unit(benchmark::kMicrosecond);

void BM_NormalStdBaseline(benchmark::State& state) {
  for (auto _ : state) {
    std::mt19937 rng(12345);
    std::normal_distribution<double> gauss(0.0, 1.0);
    double sum = 0.0;
    for (int i = 0; i < kMcNormals; ++i) sum += gauss(rng);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NormalStdBaseline)->Unit(benchmark::kMicrosecond);

void BM_McSimBatch(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  analysis::SimMonteCarloOptions opts;
  opts.samples = int(state.range(0));
  opts.batch.threads = int(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::monte_carlo_vmax_sim(
        cal, process::package_pga(), 4, 0.1e-9, true, opts));
}
BENCHMARK(BM_McSimBatch)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);

// One MOSFET stamp: a single model evaluation, the terminal reflection and
// eight Jacobian entries into a 4x4 system. Args: golden (0 alpha-power,
// 1 BSIM-lite) and bias (0 NMOS forward, 1 PMOS), both in saturation with
// a reverse-biased bulk.
void BM_MosfetStamp(benchmark::State& state) {
  const auto golden = state.range(0) == 0 ? process::GoldenKind::kAlphaPower
                                          : process::GoldenKind::kBsimLite;
  const bool pmos = state.range(1) == 1;
  circuit::Circuit ckt;
  const circuit::NodeId d = ckt.node("d");
  const circuit::NodeId g = ckt.node("g");
  const circuit::NodeId s = ckt.node("s");
  const circuit::NodeId b = ckt.node("b");
  auto& m = ckt.add_mosfet(
      "M1", d, g, s, b,
      std::shared_ptr<const devices::MosfetModel>(
          process::tech_180nm().make_golden(golden, 48.0)),
      pmos ? circuit::MosfetPolarity::kPmos : circuit::MosfetPolarity::kNmos);
  const std::size_t n = std::size_t(ckt.finalize());
  numeric::Matrix a(n, n);
  numeric::Vector rhs(n);
  numeric::Vector x = pmos ? numeric::Vector{0.4, 0.3, 1.6, 1.8}
                           : numeric::Vector{1.4, 1.5, 0.2, 0.0};
  circuit::StampContext ctx;
  ctx.mode = circuit::AnalysisMode::kTransient;
  ctx.a = &a;
  ctx.b = &rhs;
  ctx.x = &x;
  for (auto _ : state) {
    m.stamp(ctx);
    benchmark::DoNotOptimize(rhs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MosfetStamp)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"bsim", "pmos"});

void BM_DcOperatingPoint(benchmark::State& state) {
  const auto cal = analysis::calibrate(process::tech_180nm());
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = 8;
  auto bench = circuit::make_ssn_testbench(spec);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::dc_operating_point(bench.circuit));
}
BENCHMARK(BM_DcOperatingPoint)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
