// Unwrap a status-returning solve or measurement that a test expects to
// reach full-device fidelity. A run that falls short records a gtest failure
// naming what it reached, then hands back whatever it produced, so the
// surrounding checks still run.
#pragma once

#include "analysis/measure.hpp"
#include "sim/engine.hpp"
#include "sim/recovery.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace testutil {

inline ssnkit::sim::TransientResult full_device(
    ssnkit::sim::TransientRun run) {
  EXPECT_TRUE(run.ok()) << run.error->what();
  return std::move(run.result);
}

inline ssnkit::analysis::SsnMeasurement full_device(
    ssnkit::analysis::ResilientMeasurement m) {
  EXPECT_EQ(m.fidelity, ssnkit::sim::Fidelity::kFullDevice)
      << "reached " << ssnkit::sim::to_string(m.fidelity)
      << (m.error ? std::string(": ") + m.error->what() : std::string());
  return std::move(m.measurement);
}

}  // namespace testutil
