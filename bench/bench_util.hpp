// Shared helpers for the reproduction bench binaries.
#pragma once

#include "analysis/measure.hpp"
#include "sim/engine.hpp"
#include "sim/recovery.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace benchutil {

/// The waveform of a transient a bench table reports. A failed run ends the
/// bench with its typed error instead of tabulating a partial waveform.
inline ssnkit::sim::TransientResult full_device(
    ssnkit::sim::TransientRun run) {
  if (!run.ok()) throw *run.error;
  return std::move(run.result);
}

/// The simulated measurement a bench table reports as its HSPICE stand-in.
/// Anything short of full-device fidelity (a recovery rung, or no rung at
/// all) ends the bench, naming the fidelity it reached.
inline ssnkit::analysis::SsnMeasurement full_device(
    ssnkit::analysis::ResilientMeasurement m) {
  if (m.degraded())
    throw std::runtime_error(
        std::string("simulation reached only ") +
        ssnkit::sim::to_string(m.fidelity) + " fidelity" +
        (m.error ? std::string(": ") + m.error->what() : std::string()));
  return std::move(m.measurement);
}

inline void banner(const std::string& title) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("=============================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

inline double pct(double x) { return 100.0 * x; }

}  // namespace benchutil
