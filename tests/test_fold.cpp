// Differential oracle for driver folding: make_ssn_testbench builds one
// scaled driver per class of identical drivers, and this file keeps the
// per-driver circuit it replaced (one ramp source, NMOS, PMOS, load and
// anchor per driver) to check that both simulate the same bounce. By the
// symmetry behind the paper's Eqn 9/10 the folded circuit is the same
// circuit, so V_max agrees to solver round-off, not merely to LTE
// tolerance.
#include "analysis/measure.hpp"
#include "circuit/testbench.hpp"
#include "devices/asdm.hpp"

#include "full_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace ssnkit;
using circuit::SsnBench;
using circuit::SsnBenchSpec;

/// The per-driver builder make_ssn_testbench used before folding, kept as
/// the oracle: N copies of the driver on the shared vssi.
SsnBench build_per_driver(const SsnBenchSpec& spec) {
  using namespace circuit;
  spec.validate();
  SsnBench bench;
  Circuit& ckt = bench.circuit;

  const double vdd = spec.tech.vdd;
  const double cl = spec.load_cap > 0.0 ? spec.load_cap : spec.tech.load_cap;

  const NodeId gnd = kGround;
  const NodeId n_vdd = ckt.node(bench.vdd_node);
  const NodeId n_vssi = ckt.node(bench.vssi_node);
  const NodeId n_bulk = spec.bulk_to_vssi ? n_vssi : gnd;

  ckt.add_vsource("Vdd", n_vdd, gnd, waveform::Dc{vdd});

  // Ground return path: vssi --L(--R)-- 0 with the pad capacitance from
  // vssi to the true ground.
  if (spec.include_package_r && spec.package.resistance > 0.0) {
    const NodeId mid = ckt.node("vss_r");
    ckt.add_inductor(bench.inductor_name, n_vssi, mid, spec.package.inductance);
    ckt.add_resistor("Rgnd", mid, gnd, spec.package.resistance);
  } else {
    ckt.add_inductor(bench.inductor_name, n_vssi, gnd, spec.package.inductance);
  }
  if (spec.include_package_c && spec.package.capacitance > 0.0) {
    ckt.add_capacitor("Cpad", n_vssi, gnd, spec.package.capacitance);
  }

  // Shared device models: one instance serves all identical drivers.
  std::shared_ptr<const devices::MosfetModel> nmos;
  if (spec.pulldown_override) {
    nmos = spec.driver_width_mult == 1.0  // ssnlint-ignore(SSN-L001)
               ? spec.pulldown_override
               : std::make_shared<devices::ScaledMosfetModel>(
                     spec.pulldown_override->clone(), spec.driver_width_mult);
  } else {
    nmos = std::shared_ptr<const devices::MosfetModel>(
        spec.tech.make_golden(spec.golden, spec.driver_width_mult));
  }
  // Pull-up: the same golden device mirrored (the element handles PMOS
  // polarity); a 0.8 width factor reflects the usual Wp/Wn compromise.
  std::shared_ptr<const devices::MosfetModel> pmos;
  if (spec.include_pullup) {
    pmos = std::shared_ptr<const devices::MosfetModel>(
        std::make_shared<devices::ScaledMosfetModel>(
            spec.tech.make_golden(spec.golden, spec.driver_width_mult),
            0.8));
  }

  bench.slope = vdd / spec.input_rise_time;
  bench.t_ramp_start = 0.0;
  bench.t_ramp_end = 0.0;

  const int total = spec.n_drivers + spec.n_quiet;
  for (int i = 0; i < total; ++i) {
    const std::string idx = std::to_string(i);
    const NodeId n_in = ckt.node("in" + idx);
    const NodeId n_out = ckt.node("out" + idx);
    bench.input_nodes.push_back("in" + idx);
    bench.output_nodes.push_back("out" + idx);

    const bool switching = i < spec.n_drivers;
    if (switching) {
      const double delay = spec.stagger.empty() ? 0.0 : spec.stagger[std::size_t(i)];
      ckt.add_vsource("Vin" + idx, n_in, gnd,
                      waveform::Ramp{0.0, vdd, delay, spec.input_rise_time});
      bench.t_ramp_end =
          std::max(bench.t_ramp_end, delay + spec.input_rise_time);
    } else {
      ckt.add_vsource("Vin" + idx, n_in, gnd, waveform::Dc{0.0});
    }

    ckt.add_mosfet("Mn" + idx, n_out, n_in, n_vssi, n_bulk, nmos,
                   MosfetPolarity::kNmos);
    if (spec.include_pullup) {
      ckt.add_mosfet("Mp" + idx, n_out, n_in, n_vdd, n_vdd, pmos,
                     MosfetPolarity::kPmos);
    }
    ckt.add_capacitor("Cl" + idx, n_out, gnd, cl);
    // DC anchor: keeps the output node's operating point defined even with
    // the pull-up omitted. 10 MOhm draws a negligible ~0.2 uA while still
    // overpowering any residual subthreshold leakage of the models.
    ckt.add_resistor("Ranchor" + idx, n_out, n_vdd, 1e7);
  }
  return bench;
}

enum class Variant { kPlain, kStaggerBy4, kQuiet, kAsdmOverride, kPackageR };

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kStaggerBy4: return "stagger-by-4";
    case Variant::kQuiet: return "quiet";
    case Variant::kAsdmOverride: return "asdm-override";
    case Variant::kPackageR: return "package-r";
  }
  return "?";
}

SsnBenchSpec make_spec(int n, process::GoldenKind golden, bool with_c,
                       Variant variant) {
  SsnBenchSpec spec;
  spec.n_drivers = n;
  spec.golden = golden;
  spec.include_package_c = with_c;
  switch (variant) {
    case Variant::kPlain:
      break;
    case Variant::kStaggerBy4:
      // Four drivers per input delay, 10 ps apart: N/4 classes.
      for (int i = 0; i < n; ++i) spec.stagger.push_back(double(i / 4) * 10e-12);
      break;
    case Variant::kQuiet:
      spec.n_quiet = n / 2 + 1;
      break;
    case Variant::kAsdmOverride:
      spec.driver_width_mult = 1.3;
      spec.include_pullup = false;
      spec.pulldown_override = std::make_shared<devices::AsdmModel>(
          devices::AsdmParams{.k = 6e-3, .lambda = 1.25, .vx = 0.6});
      break;
    case Variant::kPackageR:
      spec.include_package_r = true;
      spec.bulk_to_vssi = true;
      break;
  }
  return spec;
}

class FoldOracle : public testing::TestWithParam<int> {};

TEST_P(FoldOracle, FoldedBenchMatchesPerDriverCircuit) {
  const int n = GetParam();
  for (auto golden :
       {process::GoldenKind::kAlphaPower, process::GoldenKind::kBsimLite}) {
    for (bool with_c : {true, false}) {
      for (auto variant : {Variant::kPlain, Variant::kStaggerBy4,
                           Variant::kQuiet, Variant::kAsdmOverride,
                           Variant::kPackageR}) {
        const SsnBenchSpec spec = make_spec(n, golden, with_c, variant);
        SCOPED_TRACE(std::string(to_string(variant)) +
                     (golden == process::GoldenKind::kAlphaPower ? " alpha"
                                                                 : " bsim") +
                     (with_c ? " C" : " no-C") + " N=" + std::to_string(n));
        SsnBench folded = circuit::make_ssn_testbench(spec);
        SsnBench oracle = build_per_driver(spec);
        ASSERT_DOUBLE_EQ(folded.t_ramp_end, oracle.t_ramp_end);
        const auto mf = testutil::full_device(analysis::measure_ssn(folded));
        const auto mo = testutil::full_device(analysis::measure_ssn(oracle));
        ASSERT_GT(mo.v_max, 0.0);
        EXPECT_LE(std::fabs(mf.v_max - mo.v_max) / mo.v_max, 1e-6)
            << "folded " << mf.v_max << " vs per-driver " << mo.v_max;
        // The engine's automatic dt_max: the simulated span / 50.
        EXPECT_LE(std::fabs(mf.t_at_max - mo.t_at_max), oracle.t_ramp_end / 50.0);
        EXPECT_EQ(mf.trust.verdict, mo.trust.verdict);
      }
    }
  }
}

// The per-driver oracle's cost grows superlinearly in N (N = 64 alone
// costs ~3 s on a 4-vCPU VM), so the grid stops at 48; the folded side is
// covered up to 256 drivers by the size test below.
INSTANTIATE_TEST_SUITE_P(DriverCounts, FoldOracle,
                         testing::Values(1, 2, 7, 16, 48),
                         [](const testing::TestParamInfo<int>& param) {
                           return "N" + std::to_string(param.param);
                         });

TEST(Fold, SplitStepSequenceStaysWithinSolverAccuracy) {
  // The one place the grid above does not agree to round-off: BSIM-lite at
  // N = 64 in 16 delay groups. Right after the third group's ramp starts
  // (t = 20 ps) the two circuits make different step-size choices from a
  // near-tied error estimate (144 vs 189 accepted steps without C), and
  // the trapezoidal ringing on vssi (~1 mV) then lands differently on the
  // final breakpoint: V_max differs by 1.5e-4 (no C) and 4.5e-5 (with C)
  // relative. That is the simulator's own step-control accuracy, not a
  // folding error, so this case is held to it rather than to round-off.
  for (bool with_c : {true, false}) {
    SCOPED_TRACE(with_c ? "C" : "no-C");
    const SsnBenchSpec spec = make_spec(64, process::GoldenKind::kBsimLite,
                                        with_c, Variant::kStaggerBy4);
    SsnBench folded = circuit::make_ssn_testbench(spec);
    SsnBench oracle = build_per_driver(spec);
    const auto mf = testutil::full_device(analysis::measure_ssn(folded));
    const auto mo = testutil::full_device(analysis::measure_ssn(oracle));
    ASSERT_GT(mo.v_max, 0.0);
    EXPECT_LE(std::fabs(mf.v_max - mo.v_max) / mo.v_max, 1e-3);
    EXPECT_LE(std::fabs(mf.t_at_max - mo.t_at_max), oracle.t_ramp_end / 50.0);
    EXPECT_EQ(mf.trust.verdict, mo.trust.verdict);
  }
}

TEST(Fold, UnknownCountIsFlatInN) {
  // Identical, unstaggered drivers always fold to one class: the MNA system
  // is the same size at every N.
  SsnBenchSpec spec;
  spec.n_drivers = 1;
  const int base = circuit::make_ssn_testbench(spec).circuit.finalize();
  for (int n : {2, 7, 16, 48, 64, 256}) {
    spec.n_drivers = n;
    EXPECT_EQ(circuit::make_ssn_testbench(spec).circuit.finalize(), base) << n;
  }
}

TEST(Fold, NewtonIterationsStayFlatInN) {
  // A folded pull-up carries m times one driver's conductance. Had it
  // stamped that conductance at the quiescent point (output exactly on
  // vdd, v_ds = 0), then past ~1 S (BSIM-lite m ~ 56, alpha-power m ~ 96)
  // the first transient factorization would take the vdd column's pivot
  // from the vdd KCL row instead of the Vdd branch row and keep it; the
  // resulting round-off in I(Vdd) outgrows Newton's 1e-12 A floor. With
  // finite-difference Jacobians that cost 40-75 % more iterations (e.g.
  // BSIM-lite without C at 50 ps: 326 at N = 48, 503-570 at N = 64-256).
  // A device exactly at v_ds = 0 now stamps nothing, and the count stays
  // flat in N without touching the floor.
  for (auto golden :
       {process::GoldenKind::kAlphaPower, process::GoldenKind::kBsimLite}) {
    for (bool with_c : {true, false}) {
      for (double tr : {50e-12, 300e-12}) {
        SsnBenchSpec spec;
        spec.golden = golden;
        spec.include_package_c = with_c;
        spec.input_rise_time = tr;
        const auto iterations = [&](int n) {
          spec.n_drivers = n;
          SsnBench bench = circuit::make_ssn_testbench(spec);
          return testutil::full_device(analysis::measure_ssn(bench))
              .stats.newton_iterations;
        };
        const std::size_t base = iterations(48);
        for (int n : {64, 96, 128, 256}) {
          const std::size_t count = iterations(n);
          EXPECT_LE(double(count), 1.25 * double(base))
              << (golden == process::GoldenKind::kAlphaPower ? "alpha" : "bsim")
              << (with_c ? " C" : " no-C") << " tr " << tr << ": " << count
              << " iterations at N = " << n << " vs " << base << " at N = 48";
        }
      }
    }
  }
}

TEST(Fold, ClassesKeepTheirLowestMembersNames) {
  // 6 switching drivers in three delay groups (0, 10, 0, 20, 10, 0 ps) plus
  // two quiet ones: four classes named after drivers 0, 1, 3 and 6.
  SsnBenchSpec spec;
  spec.n_drivers = 6;
  spec.n_quiet = 2;
  spec.stagger = {0.0, 10e-12, 0.0, 20e-12, 10e-12, 0.0};
  SsnBench bench = circuit::make_ssn_testbench(spec);
  const std::vector<std::string> outs = {"out0", "out1", "out0", "out3",
                                         "out1", "out0", "out6", "out6"};
  EXPECT_EQ(bench.output_nodes, outs);
  ASSERT_EQ(bench.input_nodes.size(), outs.size());
  EXPECT_EQ(bench.input_nodes[7], "in6");
  for (const char* name : {"Vin6", "Mn6", "Mp6", "Cl6", "Ranchor6", "Mn3"})
    EXPECT_NE(bench.circuit.find_element(name), nullptr) << name;
  for (const char* name : {"Mn2", "Mn4", "Mn5", "Mn7", "Cl7"})
    EXPECT_EQ(bench.circuit.find_element(name), nullptr) << name;
  // Every driver's probe names a real node.
  for (const auto& node : bench.output_nodes)
    EXPECT_NO_THROW(bench.circuit.find_node(node)) << node;
}

}  // namespace
