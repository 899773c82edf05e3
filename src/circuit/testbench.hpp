// Factory for the paper's experimental setup: N identical output drivers
// discharging their pad loads simultaneously through a shared ground
// parasitic network (Fig. 2/3/4 of the paper).
//
// Drivers are built folded. Drivers whose inputs are identical (all quiet
// drivers, or switching drivers with the same input delay, compared by
// exact bit pattern) form one class, and each class of m members is built
// as ONE driver m times as strong. Topology per class k (lowest member
// index k, m members):
//
//      vdd ----+---[PMOS x0.8m]---+--- out_k ---||--- 0   (load m*C_L)
//              |                  |
//   in_k ------+------------------+--- 10M/m --- vdd      (DC anchor)
//              |                  |
//              +----[NMOS xm]-----+
//                       |
//                     vssi  --- L (+ optional R) --- 0, and C_pad from vssi to 0
//
// The m members carry identical waveforms, so their currents add on vssi:
// the folded driver is the same circuit by symmetry, which is the paper's
// Eqn 9/10 observation (only beta = N*L*S matters) applied to the
// simulator. MNA size is O(#classes) instead of O(N).
//
// Names: a class keeps the element and node names of its lowest-index
// member (Vin<k>, Mn<k>, Mp<k>, Cl<k>, Ranchor<k>, in<k>, out<k>). The
// probe lists keep one entry per driver, naming that driver's class nodes,
// so input_nodes[i] / output_nodes[i] resolve for every i < N + n_quiet.
//
// The NMOS bulk is tied to the quiet substrate (true ground) by default —
// this is what makes the fitted ASDM lambda exceed 1 (body effect of the
// bouncing source). The 10 MOhm-per-driver anchor from each output to vdd
// keeps the DC operating point well-posed even when the pull-up is omitted.
#pragma once

#include "circuit/circuit.hpp"
#include "process/package.hpp"
#include "process/technology.hpp"

#include <memory>
#include <string>
#include <vector>

namespace ssnkit::circuit {

struct SsnBenchSpec {
  process::Technology tech = process::tech_180nm();
  process::Package package = process::package_pga();
  int n_drivers = 8;            ///< drivers switching simultaneously (paper's N)
  int n_quiet = 0;              ///< extra drivers whose inputs stay low
  double input_rise_time = 0.1e-9;  ///< t_r; the paper's slope S = vdd / t_r
  double load_cap = 0.0;        ///< per-driver pad load [F]; 0 = tech default
  double driver_width_mult = 1.0;
  process::GoldenKind golden = process::GoldenKind::kAlphaPower;
  /// Replace the golden pull-down with a specific device (e.g. the fitted
  /// AsdmModel) to isolate formula error from device-fit error.
  std::shared_ptr<const devices::MosfetModel> pulldown_override;
  bool include_package_r = false;  ///< the paper neglects the 10 mOhm R
  bool include_package_c = true;   ///< Section 3 benches set this false
  bool include_pullup = true;      ///< full inverter driver vs bare pull-down
  bool bulk_to_vssi = false;       ///< tie NMOS bulk to the bouncing rail
  std::vector<double> stagger;     ///< per-driver input delay [s]; empty = all 0

  void validate() const;
};

/// The built circuit plus the probe names the analyses need.
struct SsnBench {
  Circuit circuit;
  std::string vssi_node = "vssi";       ///< the bouncing internal ground
  std::string vdd_node = "vdd";
  std::string inductor_name = "Lgnd";   ///< branch current = total SSN current
  /// One entry per driver (switching first, then quiet), each naming the
  /// nodes of the driver's class; see the header comment.
  std::vector<std::string> input_nodes;
  std::vector<std::string> output_nodes;
  double t_ramp_start = 0.0;            ///< earliest input ramp start
  double t_ramp_end = 0.0;              ///< latest input ramp end
  double slope = 0.0;                   ///< input slope S [V/s]
};

SsnBench make_ssn_testbench(const SsnBenchSpec& spec);

/// The ground-path impedance probe of `ssnkit ac` and bench_ac_impedance:
/// the driver bank linearized mid-switching. "vssi" reaches ground through
/// "Lgnd" (and "Cpad" when `capacitance` > 0); each driver i is a pull-down
/// "Mn<i>" held on by a DC gate bias "Vin<i>" (its gm is the tank's only
/// damping), with "Rload<i>" (200 Ohm, from "Vdd"'s rail) and "Cl<i>"
/// (the technology's load) on its output; "Iprobe" injects 1 A of AC into
/// vssi, so AC analysis reads |Z(f)| as the voltage at vssi.
Circuit make_ground_probe(const process::Technology& tech,
                          process::GoldenKind golden, double inductance,
                          double capacitance, int n_drivers, double gate_bias);

/// Names the circuit make_ssn_testbench builds, how its devices are
/// linearized and how its Jacobian is factored. Batch journals mix it into
/// their configuration hash, so a journal written for another layout is
/// refused instead of resuming into bits this build would not reproduce:
/// the per-driver circuit used before drivers were folded (no token), the
/// folded circuit whose MOSFET Jacobians came from finite differences
/// ("folded-drivers"), and the analytic-Jacobian circuit factored in
/// natural column order ("folded-drivers+analytic-jacobians"). Each moves
/// V_max in the last digits (~1e-8 relative for the first two, ~1e-10 for
/// the column order) by changing Newton's path or its rounding.
inline constexpr char kSsnBenchLayout[] =
    "folded-drivers+analytic-jacobians+amd-order";

}  // namespace ssnkit::circuit
