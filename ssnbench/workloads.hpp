// The four workloads, end to end and traced. End-to-end runs drive only
// the CLI (child processes) and the serve wire protocol; traced runs
// replay the same items serially through layers.cpp.
#pragma once

#include "json.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace ssnbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long n = 0;  ///< samples behind the value (its base, for a ratio)
};

struct RunReport {
  std::string workload;
  bool trace = false;
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::vector<std::string> invalid;   ///< measurement conditions not met
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit,
              long n);
  void problem(const std::string& what);
  const Metric* find(const std::string& name) const;
};

struct RunContext {
  const Json* spec = nullptr;  ///< ssnbench/spec.json
  std::string out_dir;         ///< ssnbench/out (relative to the checkout)
  std::uint64_t seed = 1;
  double seconds = 20.0;
  /// Committed reference values of this workload and seed; empty when the
  /// seed has none (outputs are then checked for self-consistency only).
  std::vector<double> reference;
};

RunReport run_workload(const RunContext& ctx, const std::string& workload,
                       bool trace);

/// The checked outputs of the first reference items, computed through the
/// replay path at full precision (run.sh --write-reference).
std::vector<double> reference_values(const RunContext& ctx,
                                     const std::string& workload);

}  // namespace ssnbench
