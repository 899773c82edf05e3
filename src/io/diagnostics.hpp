// Structured input diagnostics for the parsing boundary (netlist, CSV,
// command line). The solver side has its own typed failure (see
// support/diagnostics.hpp: SolverError); this header is the input-side
// counterpart:
//
//   - Diagnostic: severity + SrcLoc + stable code + message + offending
//     token + a caret-rendered excerpt of the source line,
//   - DiagnosticSink: collects *all* diagnostics of a parse (error-recovery
//     mode) instead of aborting on the first, with an overflow cap so a
//     hostile input cannot make the sink itself unbounded,
//   - ParseError: the typed exception thrown by the throwing wrappers.
//     Derives from std::invalid_argument so legacy catch sites keep working;
//     what() renders every collected diagnostic,
//   - IoError: typed stream/file failure (open failed, short write) so
//     callers can distinguish "disk full" from "bad input",
//   - parse_double_prefix / parse_int_strict: the ONLY functions in the
//     tree allowed to call std::stod/std::stoi (ssnlint SSN-L007 enforces
//     this). They reject the non-decimal forms std::stod sneaks in
//     ("inf", "nan", hex floats like 0x1p3) and convert std::out_of_range
//     into a proper diagnosis instead of an unrelated exception type.
#pragma once

#include "support/atomic_file.hpp"
#include "support/srcloc.hpp"

#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace ssnkit::io {

enum class Severity { kNote, kWarning, kError };

inline const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

/// One located finding. `code` is a stable machine-readable identifier
/// (SSN-Exxx for errors, SSN-Wxxx for warnings) so tests and log scrapers
/// never have to match on prose.
struct Diagnostic {
  Severity severity = Severity::kError;
  support::SrcLoc loc;
  std::string code;     ///< "SSN-E102"; stable across wording changes
  std::string message;  ///< human-readable, no trailing newline
  std::string token;    ///< offending token, when one exists
  std::string excerpt;  ///< raw source line, when one exists

  /// Render as
  ///   file:3:12: error: bad suffix 'q' in '1.5q' [SSN-E002]
  ///     R1 a 0 1.5q
  ///            ^~~~
  /// The caret line underlines `token` starting at loc.column.
  std::string format() const;
};

/// Error-recovery collector. Parsers push every finding here and keep
/// going; the caller inspects has_errors() (or uses a throwing wrapper)
/// once the whole input has been seen. Identical findings (same location,
/// code and message — e.g. the same bad card expanded once per subcircuit
/// instance) are deduplicated.
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::size_t max_errors = 64)
      : max_errors_(max_errors) {}

  /// Returns false when the diagnostic was dropped (duplicate or the sink
  /// hit its error cap).
  bool add(Diagnostic d);

  void error(support::SrcLoc loc, std::string code, std::string message,
             std::string token = {}, std::string excerpt = {});
  void warning(support::SrcLoc loc, std::string code, std::string message,
               std::string token = {}, std::string excerpt = {});

  bool has_errors() const { return error_count_ > 0; }
  /// True once the error cap was hit (collection gave up early).
  bool overflowed() const { return overflowed_; }
  std::size_t error_count() const { return error_count_; }
  std::size_t warning_count() const { return warning_count_; }
  std::size_t max_errors() const { return max_errors_; }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  /// Every diagnostic, formatted and newline-separated, plus a one-line
  /// "N errors, M warnings" summary.
  std::string format_all() const;

 private:
  std::vector<Diagnostic> diags_;
  std::set<std::string> seen_keys_;  ///< dedup keys (loc+code+message)
  std::size_t max_errors_ = 64;
  std::size_t error_count_ = 0;
  std::size_t warning_count_ = 0;
  bool overflowed_ = false;
};

/// Thrown by the throwing parse wrappers after a full error-recovery pass:
/// carries every collected diagnostic; what() renders them all. Derives
/// from std::invalid_argument so pre-existing catch sites keep working.
class ParseError : public std::invalid_argument {
 public:
  explicit ParseError(const DiagnosticSink& sink);
  explicit ParseError(std::vector<Diagnostic> diagnostics);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Typed stream/file failure (open failed, short write, short read). The
/// class itself lives in support/atomic_file.hpp — the bottom layer owns
/// the crash-safe writer that throws it — and io re-exports it so parsing
/// and serialization callers keep writing io::IoError.
using support::IoError;
using support::to_string;

// ---------------------------------------------------------------------------
// Hardened numeric parsing. These are the only sanctioned call sites of
// std::stod/std::stoi in the tree (ssnlint SSN-L007).
// ---------------------------------------------------------------------------

/// Result of parsing a decimal double at the start of a token.
struct NumberParse {
  bool ok = false;
  double value = 0.0;
  std::size_t consumed = 0;  ///< characters of the numeric prefix
  std::string error;         ///< set when !ok
};

/// Parse a strictly decimal floating-point prefix: [+-]digits[.digits]
/// [(e|E)[+-]digits]. Rejects everything std::stod would sneak past a
/// validator: "inf"/"nan" (non-finite), hex floats ("0x1p3"), leading
/// whitespace. Overflow ("1e999") reports "out of range" instead of
/// leaking std::out_of_range. Trailing non-numeric characters are left for
/// the caller (SPICE unit suffixes).
NumberParse parse_double_prefix(const std::string& token);

/// Result of parsing a whole token as an int.
struct IntParse {
  bool ok = false;
  int value = 0;
  std::string error;  ///< set when !ok
};

/// Parse the ENTIRE token as a decimal integer (no suffix, no hex, no
/// whitespace); out-of-int-range values report "out of range".
IntParse parse_int_strict(const std::string& token);

}  // namespace ssnkit::io
