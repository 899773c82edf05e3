#pragma once

#include <iosfwd>

namespace ssnbench {

/// Checks the benchmark's own rules (stats.hpp, trace.hpp); prints one line
/// per failed check and returns whether all passed. Runs before every
/// benchmark run.
bool run_self_test(std::ostream& os);

}  // namespace ssnbench
