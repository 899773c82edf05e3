// Fuzz target: SPICE number parsing. parse_spice_number_ex never throws
// (anything escaping — std::out_of_range from a leaked stod, say — is a
// finding). A successful parse must be a finite double that consumed the
// whole token; a failed one must say why.
#include "circuit/netlist.hpp"

#include <cmath>
#include <cstdint>
#include <string>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string token(reinterpret_cast<const char*>(data), size);

  const auto p = ssnkit::circuit::parse_spice_number_ex(token);
  if (p.ok && !std::isfinite(p.value)) __builtin_trap();
  if (p.ok && p.consumed != token.size()) __builtin_trap();
  if (!p.ok && p.error.empty()) __builtin_trap();
  return 0;
}
