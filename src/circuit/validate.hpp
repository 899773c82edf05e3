// Semantic circuit validation: the checks a syntactically valid netlist can
// still fail. Runs after parsing (parse_netlist_ex calls it on a clean
// parse) and is equally usable on programmatically built circuits before
// handing them to the solvers. All findings flow into an
// io::DiagnosticSink with typed severities:
//
//   errors (the MNA system is wrong or the physics is nonsense):
//     SSN-E101  duplicate element name
//     SSN-E103  non-physical element value (R/L/C <= 0, |k| >= 1,
//               diode Is/n <= 0, non-finite anything)
//     SSN-E105  empty circuit (no elements)
//
//   warnings (legal but almost certainly a mistake):
//     SSN-W102  dangling node (a non-ground node touched by fewer than two
//               element terminals — usually a typo'd node name)
//     SSN-W104  inductor / voltage-source loop (DC operating point is
//               singular without gmin rescue)
//     SSN-W106  unit-sanity heuristic (a capacitor above 1 mF, an inductor
//               above 1 H, a resistor above 1 Tohm: suffix mistakes in an
//               on-package parasitic netlist of pF / nH / ohms)
//
// Validation never throws and never mutates the circuit.
#pragma once

#include "circuit/circuit.hpp"
#include "io/diagnostics.hpp"

namespace ssnkit::circuit {

struct ValidateOptions {
  /// File name stamped into diagnostic locations ("netlist", a path, ...).
  std::string source_name = "<circuit>";
};

/// Run every semantic check, appending findings to `sink`. Returns true
/// when no *errors* were found (warnings do not fail validation).
bool validate_circuit(const Circuit& circuit, io::DiagnosticSink& sink,
                      const ValidateOptions& options = {});

}  // namespace ssnkit::circuit
