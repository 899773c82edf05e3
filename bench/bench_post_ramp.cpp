// Extension bench: how much peak does the paper's [0, t_r] window miss?
//
// Table 1 evaluates the maximum only while the input ramps. Physically the
// resonator keeps moving after t_r; for fast edges (case 3b) most of the
// swing happens there. This bench compares, against a simulation run well
// past the ramp: (a) the paper's Table 1 value, (b) our analytic post-ramp
// continuation (v_max_extended), at several edge rates.
#include "bench_util.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "core/lc_model.hpp"
#include "devices/asdm.hpp"
#include "io/table.hpp"
#include "numeric/stats.hpp"

#include <cstdio>

using namespace ssnkit;

int main() {
  benchutil::banner(
      "Extension: the true (post-ramp) SSN peak vs the paper's window");

  const auto cal = analysis::calibrate(process::tech_180nm());
  core::SsnScenario base;
  base.n_drivers = 2;  // few drivers -> weak damping -> under-damped
  base.inductance = 5e-9;
  base.capacitance = 1e-12;
  base.vdd = cal.tech.vdd;
  base.device = cal.asdm.params;

  io::TextTable table({"t_r [ps]", "case", "Table 1 V_max [V]",
                       "extended V_max [V]", "sim V_max (3*t_r) [V]",
                       "ext err %", "window misses"});
  for (double tr_ps : {400.0, 100.0, 50.0, 25.0}) {
    const double tr = tr_ps * 1e-12;
    const core::SsnScenario s = base.with_slope(base.vdd / tr);
    const core::LcModel m(s);
    const auto ext = m.v_max_extended();

    // Simulate the same ASDM device (isolates the formula) past the ramp.
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = s.n_drivers;
    spec.input_rise_time = tr;
    spec.package.inductance = s.inductance;
    spec.package.capacitance = s.capacitance;
    spec.include_pullup = false;
    // A large pad load keeps the output near vdd for the whole extended
    // window, preserving the saturation assumption the ASDM relies on.
    spec.load_cap = 100e-12;
    spec.pulldown_override = std::make_shared<devices::AsdmModel>(s.device);
    analysis::MeasureOptions mopts;
    mopts.overshoot_factor = 12.0;
    mopts.transient.dt_max = tr / 100.0;
    const auto meas =
        benchutil::full_device(analysis::measure_ssn(spec, mopts));
    const double v_sim = meas.vssi.maximum().value;  // over the whole run

    table.add_row(
        {io::si_format(tr_ps, 4), core::to_string(m.max_case()),
         io::si_format(m.v_max(), 4), io::si_format(ext.v, 4),
         io::si_format(v_sim, 4),
         io::si_format(
             benchutil::pct(numeric::relative_error(ext.v, v_sim)), 3),
         io::si_format(benchutil::pct(1.0 - m.v_max() / v_sim), 3) + "%"});
  }
  std::printf("%s", table.to_string().c_str());

  std::printf(
      "\nreading: for slow edges the window is harmless, but as the edge\n"
      "shrinks below the resonator's half-period the paper's boundary value\n"
      "misses most of the physical peak, while the analytic continuation\n"
      "(free damped response from the t_r state) tracks the simulator to\n"
      "within a fraction of a percent everywhere.\n");
  return 0;
}
