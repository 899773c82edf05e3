// I/O ring design exploration — the workload the paper's introduction
// motivates: a wide output bus must switch without collapsing the internal
// ground. This example walks the three design levers the paper identifies
// (Section 3: beta = N*L*S) and verifies the chosen design in the transient
// simulator, including the switching-stagger technique ("reducing N in
// practice means making the drivers not switch simultaneously").
//
//   $ ./io_ring_design
#include "analysis/calibrate.hpp"
#include "analysis/design.hpp"
#include "analysis/measure.hpp"
#include "core/lc_model.hpp"
#include "io/table.hpp"
#include "sim/recovery.hpp"

#include <cstdio>

using namespace ssnkit;

int main() {
  const auto tech = process::tech_180nm();
  const auto cal = analysis::calibrate(tech);
  const auto pkg = process::package_pga();

  constexpr int kBusWidth = 32;
  constexpr double kEdge = 0.1e-9;
  const double budget = 0.20 * tech.vdd;

  std::printf("task: %d-bit output bus, %.2g V supply, %.1f ps edges, "
              "noise budget %.0f mV\n\n",
              kBusWidth, tech.vdd, kEdge * 1e12, budget * 1e3);

  const auto worst = analysis::make_scenario(cal, pkg, kBusWidth, kEdge, true);
  std::printf("naive design (all %d bits on one ground pin): predicted "
              "V_max = %s V -> %s\n\n",
              kBusWidth, io::si_format(analysis::predict_vmax(worst), 4).c_str(),
              analysis::predict_vmax(worst) > budget ? "VIOLATES budget"
                                                     : "ok");

  // Lever 1: more ground pads (reduces L, raises C).
  io::TextTable pads({"ground pads", "L [nH]", "C [pF]", "zeta",
                      "predicted V_max [V]", "meets budget"});
  for (int k = 1; k <= 8; k *= 2) {
    const auto p = pkg.with_ground_pads(k);
    auto s = worst;
    s.inductance = p.inductance;
    s.capacitance = p.capacitance;
    const double v = analysis::predict_vmax(s);
    pads.add_row({io::si_format(double(k), 2), io::si_format(p.inductance * 1e9, 3),
                  io::si_format(p.capacitance * 1e12, 3),
                  io::si_format(core::LcModel(s).zeta(), 3),
                  io::si_format(v, 4), v <= budget ? "yes" : "no"});
  }
  std::printf("lever 1 - parallel ground pads:\n%s", pads.to_string().c_str());
  const int pads_needed = analysis::required_ground_pads(worst, pkg, budget);
  std::printf("-> smallest pad count meeting the budget: %d\n\n", pads_needed);

  // Lever 2: slower edges (reduce S).
  const double s_max = analysis::max_input_slope(worst, budget);
  std::printf("lever 2 - edge control: slow the input slope from %s V/s to "
              "%s V/s (edge %.0f ps -> %.0f ps)\n\n",
              io::si_format(worst.slope).c_str(), io::si_format(s_max).c_str(),
              tech.vdd / worst.slope * 1e12, tech.vdd / s_max * 1e12);

  // Lever 3: bank the bus so fewer bits switch at once.
  const int n_max = analysis::max_simultaneous_drivers(worst, budget);
  std::printf("lever 3 - bus banking: at most %d bits may switch together "
              "on one pad\n\n", n_max);

  // Stagger in practice: split the bus into 4 groups offset by one edge
  // time each, and *simulate* it (superposition does not hold for the
  // nonlinear drivers, so this is where the simulator earns its keep).
  std::printf("verification in the transient simulator (stagger study, "
              "%d bits in groups of 4 on a 2-pad ground):\n", kBusWidth / 2);
  const auto stagger_run = [&](int ground_pads, double step_ps) {
    circuit::SsnBenchSpec spec;
    spec.tech = tech;
    spec.package = pkg.with_ground_pads(ground_pads);
    spec.n_drivers = kBusWidth / 2;  // 16 bits per ground-pad group
    spec.input_rise_time = kEdge;
    spec.stagger.resize(spec.n_drivers);
    for (int i = 0; i < spec.n_drivers; ++i)
      spec.stagger[std::size_t(i)] = double(i / 4) * step_ps * 1e-12;
    const auto rm = analysis::measure_ssn(spec);
    if (!rm.ok()) throw *rm.error;
    const auto& m = rm.measurement;
    // A design decision hangs on this number, so gate on its fidelity and
    // the trust layer's verdict: a recovered or degraded measurement is
    // still an estimate, but it must not silently drive the stagger
    // recommendation.
    if (rm.degraded())
      std::fprintf(stderr, "warning: stagger run at %s fidelity\n",
                   sim::to_string(rm.fidelity));
    if (m.trust.verdict == verify::Verdict::kDegraded)
      std::fprintf(stderr, "warning: stagger run not sign-off grade: %s\n",
                   m.trust.summary().c_str());
    return m.v_max;
  };
  const double v_together = stagger_run(2, 0.0);
  io::TextTable stag({"stagger per group [ps]", "simulated V_max [V]",
                      "reduction vs simultaneous"});
  for (double step_ps : {0.0, 100.0, 300.0, 600.0}) {
    const double v = stagger_run(2, step_ps);
    stag.add_row({io::si_format(step_ps, 3), io::si_format(v, 4),
                  io::si_format(100.0 * (1.0 - v / v_together), 3) + "%"});
  }
  std::printf("%s", stag.to_string().c_str());

  // Combine the levers: 4 ground pads + 300 ps group stagger.
  const double v_combined = stagger_run(4, 300.0);
  std::printf("\ncombined design (4 ground pads + 300 ps group stagger): "
              "simulated V_max = %s V -> %s the %.0f mV budget\n",
              io::si_format(v_combined, 4).c_str(),
              v_combined <= budget ? "meets" : "violates", budget * 1e3);
  std::printf("\nconclusion: once the groups are spread by a few edge times, "
              "only one group's worth of drivers switches at a time —\n"
              "exactly the paper's 'reduce effective N' recommendation; "
              "combined with extra ground pads the budget closes.\n");
  return 0;
}
