// The power-rail dual of the paper's analysis: when a bank of PMOS pull-ups
// charges the pads simultaneously, the V_DD pin inductance causes supply
// droop. By symmetry (mirror every voltage), the droop vdd - v(vddi) obeys
// exactly the ground-bounce equations, with the ASDM fitted to the mirrored
// device. This example builds the V_DD-side circuit by hand, simulates it,
// and shows the Section 3 closed form predicting the droop.
//
//   $ ./power_rail_droop
#include "analysis/calibrate.hpp"
#include "core/l_only_model.hpp"
#include "waveform/render.hpp"
#include "io/table.hpp"
#include "sim/engine.hpp"

#include <cmath>
#include <cstdio>

using namespace ssnkit;
using namespace ssnkit::circuit;

int main() {
  const auto tech = process::tech_180nm();
  const auto cal = analysis::calibrate(tech);
  const int n_drivers = 8;
  const double t_rise = 0.1e-9;
  const double l_vdd = 5e-9;

  // Build the V_DD-side bank: ideal supply --L_vdd-- vddi; each driver is a
  // full inverter whose input FALLS, so the PMOS (source on vddi, n-well
  // tied to the quiet ideal supply) charges the pad load.
  Circuit ckt;
  const NodeId n_vdd = ckt.node("vdd_ideal");
  const NodeId n_vddi = ckt.node("vddi");
  ckt.add_vsource("Vdd", n_vdd, kGround, waveform::Dc{tech.vdd});
  ckt.add_inductor("Lvdd", n_vdd, n_vddi, l_vdd);

  std::shared_ptr<const devices::MosfetModel> golden(tech.make_golden());
  for (int i = 0; i < n_drivers; ++i) {
    const std::string idx = std::to_string(i);
    const NodeId in = ckt.node("in" + idx);
    const NodeId out = ckt.node("out" + idx);
    ckt.add_vsource("Vin" + idx, in, kGround,
                    waveform::Ramp{tech.vdd, 0.0, 0.0, t_rise});  // falling
    ckt.add_mosfet("Mp" + idx, out, in, n_vddi, n_vdd, golden,
                   MosfetPolarity::kPmos);
    ckt.add_mosfet("Mn" + idx, out, in, kGround, kGround, golden);
    ckt.add_capacitor("Cl" + idx, out, kGround, tech.load_cap);
  }

  sim::TransientOptions topts;
  topts.t_stop = t_rise;
  topts.dt_max = t_rise / 200.0;
  const auto run = sim::run_transient_ex(ckt, topts);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.error->what());
    return 1;
  }
  const auto& result = run.result;
  // The engine verified this solve step by step (scaled residuals plus a
  // condition estimate); surface its verdict before comparing numbers.
  std::printf("solve trust: %s\n\n", result.trust.summary().c_str());

  // Droop waveform: vdd - v(vddi).
  const auto vddi = result.waveform("vddi");
  const auto droop = vddi.scaled(-1.0).shifted(tech.vdd);

  // The dual closed form: identical equations, the mirrored device has the
  // same fitted (K, lambda, V_x) because our golden PMOS is the mirrored
  // golden NMOS.
  core::SsnScenario scenario;
  scenario.n_drivers = n_drivers;
  scenario.inductance = l_vdd;
  scenario.capacitance = 0.0;
  scenario.vdd = tech.vdd;
  scenario.slope = tech.vdd / t_rise;
  scenario.device = cal.asdm.params;
  const core::LOnlyModel model(scenario);
  const auto model_droop = model.vn_waveform(512);

  io::ChartOptions copts;
  copts.title = "V_DD droop [V] vs t: simulator vs dual closed form";
  copts.y_label = "droop";
  std::printf("%s", waveform::ascii_chart({&droop, &model_droop},
                                    {"simulated", "model (dual Eqn 6)"}, copts)
                        .c_str());

  const double sim_max = droop.maximum_in(0.0, t_rise).value;
  io::TextTable t({"quantity", "value"});
  t.add_row({std::string("simulated max droop"), io::si_format(sim_max, 4) + "V"});
  t.add_row({std::string("model max droop (Eqn 7)"),
             io::si_format(model.v_max(), 4) + "V"});
  const double diff_pct = 100.0 * std::fabs(model.v_max() - sim_max) / sim_max;
  t.add_row({std::string("difference"), io::si_format(diff_pct, 3) + "%"});
  std::printf("%s", t.to_string().c_str());
  std::printf("\nThe ground-bounce formulas carry over to supply droop "
              "unchanged — the paper analyzes the ground node 'for\n"
              "simplicity of presentation' and this is the symmetric case it "
              "alludes to.\n");
  return 0;
}
