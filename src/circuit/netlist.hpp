// A SPICE-flavoured netlist front end, so circuits (including the SSN
// testbench) can be described as text. Supported cards:
//
//   * comment lines start with '*' (or ';' / '//' anywhere in a line)
//   Rname n1 n2 value
//   Cname n1 n2 value [IC=v]
//   Lname n1 n2 value [IC=i]
//   Vname p  m  DC value | RAMP(v0 v1 tstart trise) |
//                PULSE(v0 v1 delay rise fall width period) |
//                PWL(t0 v0 t1 v1 ...) | SIN(off ampl freq [delay])
//   Iname p  m  <same shapes as V>
//   Gname op om cp cm gm                      (VCCS)
//   Dname a  c  [IS=value] [N=value]
//   Kname L1 L2 k                 (mutual coupling; fuses the two L cards)
//   Mname d  g  s  b  modelname [W=mult]
//   .model name ASDM  K=... LAMBDA=... VX=...
//   .model name ALPHA VDD=... VT0=... ALPHA=... ID0=... VD0=...
//                     [GAMMA=...] [PHI2F=...] [CLM=...]
//   .model name BSIM  KP=... VT0=... [GAMMA=...] [PHI2F=...] [THETA=...]
//                     [VSAT=...] [CLM=...]
//   (append PMOS to a .model line for a p-channel device)
//   .subckt NAME port1 [port2 ...] / .ends    (hierarchical blocks)
//   Xname node1 [node2 ...] NAME              (instantiate a subcircuit;
//                                              inner elements/nodes become
//                                              "Xname.<local>"; ground is
//                                              global)
//   .tran tstep tstop
//   .end
//
// Numbers accept SPICE suffixes: f p n u m k meg g t (case-insensitive).
//
// The parser runs in error-recovery mode: a bad card is diagnosed (with
// file/line/column, the offending token and a caret excerpt — see
// io/diagnostics.hpp) and skipped, so one pass reports *every* problem in
// the file. Resource guards (input size, line/token length, subcircuit
// nesting depth, expanded element count) bound what hostile input can make
// the parser do.
#pragma once

#include "circuit/circuit.hpp"
#include "io/diagnostics.hpp"

#include <optional>
#include <string>

namespace ssnkit::circuit {

struct TranDirective {
  double tstep = 0.0;
  double tstop = 0.0;
};

struct ParsedNetlist {
  Circuit circuit;
  std::optional<TranDirective> tran;
  std::string title;  ///< first line when it is not a card
};

/// Hard resource guards. Violations surface as SSN-E030 diagnostics and
/// abort the parse (they are not recoverable-card errors: the point is to
/// stop *before* memory or stack is exhausted).
struct ParseLimits {
  std::size_t max_input_bytes = 8u << 20;  ///< whole-netlist size cap (8 MiB)
  std::size_t max_line_length = 8192;      ///< longest raw line
  std::size_t max_token_length = 512;      ///< longest single token
  int max_subckt_depth = 32;               ///< X-instantiation nesting
  /// Cap on *expanded* elements: a chain of .subckt doublings grows
  /// exponentially, so the budget is enforced during expansion.
  std::size_t max_elements = 200000;
  std::size_t max_errors = 64;  ///< DiagnosticSink cap before giving up
};

struct ParseOptions {
  std::string filename = "netlist";  ///< stamped into diagnostic locations
  ParseLimits limits;
  /// Run circuit::validate_circuit on a clean parse (semantic errors and
  /// warnings are appended to the same sink).
  bool validate = true;
};

/// Everything a parse produced: the (possibly partial) netlist and every
/// diagnostic. `ok` means no errors (warnings allowed); when !ok the
/// netlist must not be simulated.
struct NetlistParseResult {
  ParsedNetlist netlist;
  io::DiagnosticSink diagnostics;
  bool ok = false;
};

/// Error-recovery parse: never throws; collects every diagnostic in one
/// pass. Check `ok` before simulating the netlist.
NetlistParseResult parse_netlist_ex(const std::string& text,
                                    const ParseOptions& options = {});

/// Parse a single SPICE number with optional unit suffix ("10p", "5MEG").
/// Strictly decimal: "inf", "nan" and hex floats ("0x1p3") are rejected,
/// and overflow reports out-of-range instead of leaking std::out_of_range.
/// Never throws; on failure `ok` is false and `error` says why.
io::NumberParse parse_spice_number_ex(const std::string& token);

}  // namespace ssnkit::circuit
