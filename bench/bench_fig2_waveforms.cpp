// Reproduces Fig. 2 of the paper: time-domain comparison of the closed-form
// L-only model (Eqns 6 and 8) against the transient simulator for the
// typical case (8 drivers, L = 5 nH, 0.1 ns input rise).
//   (a) simulated waveforms V_IN, V_OUT, V_n
//   (b) simulated vs modeled SSN voltage
//   (c) simulated vs modeled current through the ground inductor
#include "bench_util.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "core/l_only_model.hpp"
#include "waveform/render.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "waveform/metrics.hpp"

#include <cstdio>

using namespace ssnkit;

int main() {
  benchutil::banner("Fig. 2 reproduction: SSN waveforms, model vs simulator");

  const auto cal = analysis::calibrate(process::tech_180nm());
  const int n_drivers = 8;
  const double t_rise = 0.1e-9;

  std::printf("setup: N = %d, L = 5 nH, t_r = 0.1 ns (S = %.3g V/ns), "
              "vdd = %.2g V, ASDM K = %.4g, lambda = %.3f, V_x = %.3f\n",
              n_drivers, cal.tech.vdd / t_rise * 1e-9, cal.tech.vdd,
              cal.asdm.params.k, cal.asdm.params.lambda, cal.asdm.params.vx);

  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = n_drivers;
  spec.input_rise_time = t_rise;
  spec.include_package_c = false;  // Section 3 configuration
  analysis::MeasureOptions mopts;
  mopts.overshoot_factor = 2.0;  // show the tail past the ramp
  const auto sim = benchutil::full_device(analysis::measure_ssn(spec, mopts));

  const auto scenario =
      analysis::make_scenario(cal, process::package_pga(), n_drivers, t_rise,
                              /*include_c=*/false);
  const core::LOnlyModel model(scenario);

  // (a) raw simulated waveforms.
  benchutil::section("(a) simulated waveforms");
  io::ChartOptions copts;
  copts.title = "Fig.2a  V_IN, V_OUT, V_n(vssi) [V] vs t [s]";
  copts.y_label = "V";
  std::printf("%s", waveform::ascii_chart({&sim.vin, &sim.vout, &sim.vssi},
                                    {"V_IN", "V_OUT", "V_n"}, copts)
                        .c_str());

  // (b) SSN voltage: model vs simulator during the ramp.
  benchutil::section("(b) SSN voltage: model vs simulator");
  const auto model_vn = model.vn_waveform(512);
  copts.title = "Fig.2b  V_n [V]: model (Eqn 6) vs simulator";
  const auto sim_vn_window = sim.vssi.windowed(0.0, t_rise);
  std::printf("%s", waveform::ascii_chart({&sim_vn_window, &model_vn},
                                    {"simulated", "model"}, copts)
                        .c_str());
  const auto err_v =
      waveform::compare(model_vn, sim.vssi, scenario.t_on(), t_rise);
  io::TextTable vt({"metric", "value"});
  vt.add_row({std::string("simulated V_max [V]"),
              std::to_string(sim.v_max)});
  vt.add_row({std::string("model V_max (Eqn 7) [V]"),
              std::to_string(model.v_max())});
  vt.add_row({std::string("peak error [%]"),
              std::to_string(benchutil::pct(err_v.peak_rel))});
  vt.add_row({std::string("max pointwise error [% of peak]"),
              std::to_string(benchutil::pct(err_v.norm_max_abs))});
  std::printf("%s", vt.to_string().c_str());

  // (c) inductor current: model vs simulator.
  benchutil::section("(c) inductor current: model vs simulator");
  const auto model_il = model.current_waveform(512);
  const auto sim_il_window = sim.i_l.windowed(0.0, t_rise);
  copts.title = "Fig.2c  I_L [A]: model (Eqn 8 x N) vs simulator";
  copts.y_label = "I";
  std::printf("%s", waveform::ascii_chart({&sim_il_window, &model_il},
                                    {"simulated", "model"}, copts)
                        .c_str());
  const auto err_i =
      waveform::compare(model_il, sim.i_l, scenario.t_on(), t_rise);
  std::printf("current: sim peak = %s A, model peak = %s A, "
              "max pointwise error = %.2f %% of peak\n",
              io::si_format(sim.i_l.maximum_in(0.0, t_rise).value).c_str(),
              io::si_format(model_il.maximum().value).c_str(),
              benchutil::pct(err_i.norm_max_abs));

  // Data export for external plotting.
  io::CsvWriter csv({"t", "sim_vn", "model_vn", "sim_il", "model_il"});
  for (std::size_t i = 0; i < sim_vn_window.size(); ++i) {
    const double t = sim_vn_window.time(i);
    csv.add_row({t, sim_vn_window.value(i), model_vn.sample(t),
                 sim.i_l.sample(t), model_il.sample(t)});
  }
  csv.write_file("fig2_waveforms.csv");
  std::printf("\nwrote fig2_waveforms.csv (%zu rows)\n", csv.row_count());

  std::printf("\nsolver: %zu steps (%zu rejected), %zu Newton iterations\n",
              sim.stats.accepted_steps, sim.stats.rejected_steps,
              sim.stats.newton_iterations);
  return 0;
}
