// Drive the circuit simulator from a SPICE-flavoured netlist — either a
// file given on the command line or a built-in demo (a 4-driver SSN bench
// written as plain text, with the fitted ASDM as the device model). Prints
// an ASCII chart of the requested node and writes all signals to CSV.
//
//   $ ./netlist_sim                      # built-in SSN demo
//   $ ./netlist_sim my.cir [node]        # your netlist (needs .tran)
#include "circuit/netlist.hpp"
#include "waveform/render.hpp"
#include "io/csv.hpp"
#include "sim/engine.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ssnkit;

namespace {

constexpr const char* kDemoNetlist = R"(* demo: 4-driver SSN bench, one driver per subcircuit instance
.model DRV ASDM K=5.3m LAMBDA=1.17 VX=0.56
.subckt PAD_DRIVER in pad vss vdd
Mpull pad in vss 0 DRV
Cload pad 0 10p IC=1.8
Ranchor pad vdd 10meg
.ends
Vdd vdd 0 DC 1.8
Lgnd vssi 0 5n
Cpad vssi 0 1p
Vin in 0 RAMP(0 1.8 0 0.1n)
X0 in out0 vssi vdd PAD_DRIVER
X1 in out1 vssi vdd PAD_DRIVER
X2 in out2 vssi vdd PAD_DRIVER
X3 in out3 vssi vdd PAD_DRIVER
.tran 1p 0.1n
.end
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text;
  std::string probe = "vssi";
  if (argc >= 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
    if (argc >= 3) probe = argv[2];
  } else {
    text = kDemoNetlist;
    std::printf("(no netlist given; running the built-in SSN demo)\n");
  }

  try {
    auto parse = circuit::parse_netlist_ex(text);
    if (!parse.ok) {
      std::fprintf(stderr, "%s\n", parse.diagnostics.format_all().c_str());
      return 1;
    }
    auto& parsed = parse.netlist;
    if (!parsed.title.empty()) std::printf("title: %s\n", parsed.title.c_str());
    if (!parsed.tran) {
      std::fprintf(stderr, "netlist has no .tran directive\n");
      return 1;
    }
    sim::TransientOptions opts;
    opts.t_stop = parsed.tran->tstop;
    opts.dt_initial = parsed.tran->tstep;
    opts.dt_max = parsed.tran->tstop / 100.0;
    const auto run = sim::run_transient_ex(parsed.circuit, opts);
    if (!run.ok()) throw *run.error;
    const auto& result = run.result;

    if (!result.has_signal(probe)) {
      std::fprintf(stderr, "no signal '%s'; available:", probe.c_str());
      for (const auto& n : result.signal_names())
        std::fprintf(stderr, " %s", n.c_str());
      std::fprintf(stderr, "\n");
      return 1;
    }
    const auto wave = result.waveform(probe);
    io::ChartOptions copts;
    copts.title = "v(" + probe + ") vs t";
    copts.y_label = probe;
    std::printf("%s", waveform::ascii_chart(wave, copts).c_str());
    std::printf("%s: min %.6g, max %.6g, final %.6g; %zu time points, "
                "%zu Newton iterations\n",
                probe.c_str(), wave.minimum().value, wave.maximum().value,
                result.final_value(probe), result.point_count(),
                result.stats.newton_iterations);

    std::vector<std::string> header = {"time"};
    std::vector<waveform::Waveform> waves;
    for (const auto& n : result.signal_names()) {
      header.push_back(n);
      waves.push_back(result.waveform(n));
    }
    io::CsvWriter csv(header);
    for (std::size_t i = 0; i < result.point_count(); ++i) {
      std::vector<double> row = {result.times()[i]};
      for (const auto& w : waves) row.push_back(w.value(i));
      csv.add_row(row);
    }
    csv.write_file("netlist_sim.csv");
    std::printf("wrote netlist_sim.csv\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
