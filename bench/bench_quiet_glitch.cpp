// Extension bench: glitches on QUIET outputs — the paper's first-listed
// SSN symptom ("generates glitches on the ground and power-supply wires"
// that couple into non-switching outputs).
//
// A quiet driver holding its pad LOW has its NMOS fully on, so the pad is
// pulled toward the bouncing internal ground through the device's on
// resistance; the pad load capacitance low-pass filters the brief bounce.
// This bench sweeps N switching neighbours and reports the quiet-pad
// glitch for a heavily loaded pad (10 pF) and a lightly loaded one (0.5 pF
// — e.g. an on-package trace), against a V_IL = 0.3*vdd margin.
#include "bench_util.hpp"

#include "analysis/calibrate.hpp"
#include "analysis/measure.hpp"
#include "circuit/testbench.hpp"
#include "io/table.hpp"
#include "sim/engine.hpp"

#include <cstdio>

using namespace ssnkit;

int main() {
  benchutil::banner("Extension: glitch amplitude on quiet (logic-low) outputs");

  const auto cal = analysis::calibrate(process::tech_180nm());
  const double t_rise = 0.1e-9;
  const double vil = 0.3 * cal.tech.vdd;

  const auto run_case = [&](int n, double victim_load, double& v_n,
                            double& glitch) {
    circuit::SsnBenchSpec spec;
    spec.tech = cal.tech;
    spec.n_drivers = n;
    spec.n_quiet = 1;  // one victim
    spec.input_rise_time = t_rise;
    circuit::SsnBench bench = circuit::make_ssn_testbench(spec);
    const std::string victim = std::to_string(n);
    // The bench ties quiet inputs low (victim holds HIGH); flip it: drive
    // the victim input high so its NMOS holds the pad LOW.
    bench.circuit.remove_element("Vin" + victim);
    bench.circuit.add_vsource("Vin" + victim,
                              bench.circuit.find_node("in" + victim),
                              circuit::kGround, waveform::Dc{cal.tech.vdd});
    // Adjust the victim's pad load.
    bench.circuit.remove_element("Cl" + victim);
    bench.circuit.add_capacitor("Cl" + victim,
                                bench.circuit.find_node("out" + victim),
                                circuit::kGround, victim_load);
    sim::TransientOptions topts;
    topts.t_stop = t_rise * 2.0;
    topts.dt_max = t_rise / 200.0;
    const auto result =
        benchutil::full_device(sim::run_transient_ex(bench.circuit, topts));
    v_n = result.waveform("vssi").maximum().value;
    glitch = result.waveform("out" + victim).maximum().value;
  };

  io::TextTable table({"N switching", "V_n peak [V]", "glitch @10pF [V]",
                       "glitch @0.5pF [V]", "light/V_n", "vs V_IL=0.54V"});
  for (int n : {2, 4, 8, 12, 16}) {
    double v_n = 0.0, heavy = 0.0, light = 0.0, v_n2 = 0.0;
    run_case(n, 10e-12, v_n, heavy);
    run_case(n, 0.5e-12, v_n2, light);
    table.add_row({io::si_format(double(n), 2), io::si_format(v_n, 4),
                   io::si_format(heavy, 4), io::si_format(light, 4),
                   io::si_format(light / v_n, 3),
                   light > vil ? "LOGIC UPSET" : "ok"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: a heavily loaded quiet pad low-pass filters the brief\n"
      "bounce (R_on*C_L exceeds the ramp), but a lightly loaded victim tracks\n"
      "a large fraction of V_n; when that crosses the receiver's V_IL the\n"
      "quiet line reads as a spurious HIGH — the failure mode that makes\n"
      "accurate V_max prediction a sign-off requirement.\n");
  return 0;
}
