#include "circuit/testbench.hpp"

#include "support/contracts.hpp"
#include "support/journal.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace ssnkit::circuit {

void SsnBenchSpec::validate() const {
  tech.validate();
  package.validate();
  SSN_REQUIRE(n_drivers >= 1, "SsnBenchSpec: n_drivers must be >= 1");
  SSN_REQUIRE(n_quiet >= 0, "SsnBenchSpec: n_quiet must be >= 0");
  SSN_REQUIRE(input_rise_time > 0.0, "SsnBenchSpec: input_rise_time must be > 0");
  SSN_REQUIRE(load_cap >= 0.0, "SsnBenchSpec: load_cap must be >= 0");
  SSN_REQUIRE(driver_width_mult > 0.0,
              "SsnBenchSpec: driver_width_mult must be > 0");
  SSN_REQUIRE(stagger.empty() || int(stagger.size()) == n_drivers,
              "SsnBenchSpec: stagger must be empty or have n_drivers entries");
  for (double s : stagger)
    SSN_REQUIRE(s >= 0.0, "SsnBenchSpec: stagger must be >= 0");
}

namespace {

/// Drivers that see the same input are interchangeable on the shared vssi:
/// one class per (switching, input delay), delays compared bit-exactly.
struct DriverClass {
  bool switching = false;
  double delay = 0.0;  ///< input ramp start [s]
  int first = 0;       ///< lowest member index; names the class's elements
  int size = 0;
};

}  // namespace

SsnBench make_ssn_testbench(const SsnBenchSpec& spec) {
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

  // Group the drivers into classes of identical input waveforms. Every
  // driver keeps its own probe entry, naming its class's nodes.
  const int total = spec.n_drivers + spec.n_quiet;
  std::vector<DriverClass> classes;
  for (int i = 0; i < total; ++i) {
    const bool switching = i < spec.n_drivers;
    const double delay =
        switching && !spec.stagger.empty() ? spec.stagger[std::size_t(i)] : 0.0;
    auto c = std::find_if(classes.begin(), classes.end(), [&](const auto& k) {
      return k.switching == switching &&
             support::double_bits(k.delay) == support::double_bits(delay);
    });
    if (c == classes.end()) c = classes.insert(c, {switching, delay, i, 0});
    ++c->size;
    const std::string idx = std::to_string(c->first);
    bench.input_nodes.push_back("in" + idx);
    bench.output_nodes.push_back("out" + idx);
  }

  bench.slope = vdd / spec.input_rise_time;
  bench.t_ramp_start = 0.0;
  bench.t_ramp_end = 0.0;

  // One driver per class, m times as strong as a single driver: the m
  // members carry identical waveforms, so their currents simply add.
  for (const DriverClass& dc : classes) {
    const double m = double(dc.size);
    const double width = spec.driver_width_mult * m;
    const std::string idx = std::to_string(dc.first);
    const NodeId n_in = ckt.node("in" + idx);
    const NodeId n_out = ckt.node("out" + idx);

    if (dc.switching) {
      ckt.add_vsource("Vin" + idx, n_in, gnd,
                      waveform::Ramp{0.0, vdd, dc.delay, spec.input_rise_time});
      bench.t_ramp_end =
          std::max(bench.t_ramp_end, dc.delay + spec.input_rise_time);
    } else {
      ckt.add_vsource("Vin" + idx, n_in, gnd, waveform::Dc{0.0});
    }

    std::shared_ptr<const devices::MosfetModel> nmos;
    if (spec.pulldown_override) {
      nmos = std::make_shared<devices::ScaledMosfetModel>(
          spec.pulldown_override->clone(), width);
    } else {
      nmos = spec.tech.make_golden(spec.golden, width);
    }
    ckt.add_mosfet("Mn" + idx, n_out, n_in, n_vssi, n_bulk, nmos,
                   MosfetPolarity::kNmos);
    if (spec.include_pullup) {
      // Pull-up: the same golden device mirrored (the element handles PMOS
      // polarity); a 0.8 width factor reflects the usual Wp/Wn compromise.
      ckt.add_mosfet("Mp" + idx, n_out, n_in, n_vdd, n_vdd,
                     spec.tech.make_golden(spec.golden, 0.8 * width),
                     MosfetPolarity::kPmos);
    }
    ckt.add_capacitor("Cl" + idx, n_out, gnd, m * cl);
    // DC anchor: keeps the output node's operating point defined even with
    // the pull-up omitted. 10 MOhm per driver draws a negligible ~0.2 uA
    // while still overpowering any residual subthreshold leakage.
    ckt.add_resistor("Ranchor" + idx, n_out, n_vdd, 1e7 / m);
  }
  return bench;
}

Circuit make_ground_probe(const process::Technology& tech,
                          process::GoldenKind golden, double inductance,
                          double capacitance, int n_drivers, double gate_bias) {
  Circuit ckt;
  const NodeId n_vdd = ckt.node("vdd");
  const NodeId n_vssi = ckt.node("vssi");
  ckt.add_vsource("Vdd", n_vdd, kGround, waveform::Dc{tech.vdd});
  ckt.add_inductor("Lgnd", n_vssi, kGround, inductance);
  if (capacitance > 0.0)
    ckt.add_capacitor("Cpad", n_vssi, kGround, capacitance);
  std::shared_ptr<const devices::MosfetModel> nmos(tech.make_golden(golden));
  for (int i = 0; i < n_drivers; ++i) {
    const std::string idx = std::to_string(i);
    const NodeId in = ckt.node("in" + idx);
    const NodeId out = ckt.node("out" + idx);
    ckt.add_vsource("Vin" + idx, in, kGround, waveform::Dc{gate_bias});
    ckt.add_mosfet("Mn" + idx, out, in, n_vssi, kGround, nmos);
    ckt.add_resistor("Rload" + idx, n_vdd, out, 200.0);  // keeps M saturated
    ckt.add_capacitor("Cl" + idx, out, kGround, tech.load_cap);
  }
  ckt.add_isource("Iprobe", kGround, n_vssi, waveform::Dc{0.0}).set_ac(1.0);
  return ckt;
}

}  // namespace ssnkit::circuit
