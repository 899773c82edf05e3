// The adapter: every call the benchmark makes into the program's internal
// API lives in layers.cpp, and nothing else in ssnbench/ includes a header
// from src/. When an API is renamed or collapsed, only layers.cpp changes,
// and only the traced run depends on it; end-to-end runs use the CLI
// (cli_main, run in a child process) and the serve wire protocol.
//
// Each replay calls the layers' public functions in the order the product
// calls them, opening one span per call (trace.hpp). Spans are outside-in:
// a function's internals are not split further until the program carries
// its own phase timers.
#pragma once

#include "trace.hpp"

#include <memory>
#include <string>
#include <vector>

namespace ssnbench::layers {

/// `ssnkit <argv>`: the command-line entry point, run by `ssnbench cli`.
int cli_main(const std::vector<std::string>& argv);

/// Solver and circuit counters of one simulated point.
struct PointCounts {
  double unknowns = 0, accepted = 0, rejected = 0, newton_iters = 0,
         newton_failures = 0, dc_iters = 0, residual_checks = 0,
         refinements = 0;
  double mosfets = 0;  ///< device instances evaluated per Newton iteration
};

/// Layer probes on one point's circuit: not part of the product path,
/// run beside it to estimate what the outside-in spans cannot split.
struct Probe {
  double refactor_solve_ns = 0;  ///< SparseFactor::refactorize + solve
  double factor_nnz = 0;         ///< stored entries of L + U
};

/// Mean cost of one MosfetModel::evaluate of the 180 nm golden device
/// (width multiplier `width`) over a bias sweep.
double device_eval_ns(double width);

struct McSample {
  double l_factor = 1, c_factor = 1, rise_factor = 1, width_factor = 1;
};

/// `ssnkit mc --sim` one sample at a time, as monte_carlo_vmax_sim
/// evaluates it (180 nm, alpha golden, pga package, t_r = 0.1 ns, with C).
class McReplay {
 public:
  /// Calibrates, inside an "analysis.calibrate" span.
  McReplay(Tracer& tracer, int n_drivers);
  ~McReplay();
  /// V_max of one sample; NaN when its full-device transient failed (the
  /// product would then climb the recovery ladder, which is not replayed).
  double sample(Tracer& tracer, long item, const McSample& s,
                PointCounts& counts);
  Probe probe(const McSample& s);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// `ssnkit simulate <netlist> --probe vssi` in-process; returns the
/// maximum of v(vssi), NaN when the parse or the transient failed.
double netlist_item(Tracer& tracer, long item, const std::string& text,
                    PointCounts& counts);
Probe netlist_probe(const std::string& text);

/// The serve daemon's per-request path in thread mode: parse, cache
/// lookup, execute on a miss, cache insert, render.
class ServeReplay {
 public:
  /// Fits the default calibration, inside an "analysis.calibrate" span.
  /// The result cache has the daemon's default capacity.
  explicit ServeReplay(Tracer& tracer);
  ~ServeReplay();
  struct Result {
    bool ok = false;
    bool cached = false;
    std::string response;  ///< the line the daemon would send
  };
  Result item(Tracer& tracer, long item, const std::string& line);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-isolation round trip: the same requests executed in-process
/// and through a one-worker Supervisor.
struct IsolationProbe {
  bool ok = true;
  double rtt_us = 0;          ///< median(supervisor - in-process) per request
  double overhead_ratio = 0;  ///< median of that difference / in-process
  double worker_cold_ms = 0;  ///< first request on a fresh worker - steady
};
IsolationProbe isolation_probe(const std::vector<std::string>& lines);

}  // namespace ssnbench::layers
