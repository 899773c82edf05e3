#include "io/diagnostics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

namespace ssnkit::io {

namespace {

/// Cap a rendered excerpt so a pathological multi-kilobyte line cannot blow
/// up every diagnostic that points into it. The window is recentred around
/// `column` (1-based) when the line is longer than the cap; `column` is
/// rewritten to the position inside the returned window.
constexpr std::size_t kMaxExcerpt = 120;

std::string window_excerpt(const std::string& line, int& column) {
  if (line.size() <= kMaxExcerpt) return line;
  const std::size_t col = column > 0 ? std::size_t(column - 1) : 0;
  std::size_t begin = 0;
  if (col > kMaxExcerpt / 2) begin = col - kMaxExcerpt / 2;
  if (begin + kMaxExcerpt > line.size()) begin = line.size() - kMaxExcerpt;
  std::string out = line.substr(begin, kMaxExcerpt);
  if (begin > 0) {
    out = "..." + out.substr(3);
  }
  if (begin + kMaxExcerpt < line.size()) {
    out = out.substr(0, out.size() - 3) + "...";
  }
  if (column > 0) column = int(col - begin) + 1;
  return out;
}

}  // namespace

std::string Diagnostic::format() const {
  std::string s = loc.to_string();
  s += ": ";
  s += io::to_string(severity);
  s += ": ";
  s += message;
  if (!code.empty()) {
    s += " [";
    s += code;
    s += ']';
  }
  if (!excerpt.empty()) {
    int col = loc.column;
    const std::string shown = window_excerpt(excerpt, col);
    s += "\n  ";
    // Make control characters printable so binary garbage in the input
    // cannot corrupt the terminal.
    for (char c : shown)
      s += (c == '\t') ? c
                       : (std::isprint(static_cast<unsigned char>(c)) ? c : '?');
    if (col > 0 && std::size_t(col) <= shown.size() + 1) {
      s += "\n  ";
      for (int i = 0; i + 1 < col; ++i)
        s += (shown[std::size_t(i)] == '\t') ? '\t' : ' ';
      s += '^';
      std::size_t underline = token.empty() ? 1 : token.size();
      const std::size_t room =
          shown.size() >= std::size_t(col) ? shown.size() - std::size_t(col) + 1
                                           : 1;
      underline = std::max<std::size_t>(1, std::min(underline, room));
      s.append(underline - 1, '~');
    }
  }
  return s;
}

bool DiagnosticSink::add(Diagnostic d) {
  if (d.severity == Severity::kError && error_count_ >= max_errors_) {
    if (!overflowed_) {
      overflowed_ = true;
      diags_.push_back({Severity::kNote, d.loc, "SSN-E031",
                        "too many errors (" + std::to_string(max_errors_) +
                            "); further errors suppressed",
                        {},
                        {}});
    }
    return false;
  }
  const std::string key = d.loc.to_string() + '\x1f' + d.code + '\x1f' +
                          d.message;
  if (!seen_keys_.insert(key).second) return false;
  if (d.severity == Severity::kError) ++error_count_;
  if (d.severity == Severity::kWarning) ++warning_count_;
  diags_.push_back(std::move(d));
  return true;
}

void DiagnosticSink::error(support::SrcLoc loc, std::string code,
                           std::string message, std::string token,
                           std::string excerpt) {
  add({Severity::kError, std::move(loc), std::move(code), std::move(message),
       std::move(token), std::move(excerpt)});
}

void DiagnosticSink::warning(support::SrcLoc loc, std::string code,
                             std::string message, std::string token,
                             std::string excerpt) {
  add({Severity::kWarning, std::move(loc), std::move(code), std::move(message),
       std::move(token), std::move(excerpt)});
}

std::string DiagnosticSink::format_all() const {
  std::string s;
  for (const Diagnostic& d : diags_) {
    s += d.format();
    s += '\n';
  }
  s += std::to_string(error_count_) + " error" +
       (error_count_ == 1 ? "" : "s") + ", " + std::to_string(warning_count_) +
       " warning" + (warning_count_ == 1 ? "" : "s");
  return s;
}

namespace {

std::string parse_error_what(const std::vector<Diagnostic>& diags) {
  std::size_t errors = 0, warnings = 0;
  std::string s;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kWarning) ++warnings;
    s += d.format();
    s += '\n';
  }
  s += std::to_string(errors) + " error" + (errors == 1 ? "" : "s") + ", " +
       std::to_string(warnings) + " warning" + (warnings == 1 ? "" : "s");
  return s;
}

}  // namespace

ParseError::ParseError(const DiagnosticSink& sink)
    : ParseError(sink.diagnostics()) {}

ParseError::ParseError(std::vector<Diagnostic> diagnostics)
    : std::invalid_argument(parse_error_what(diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

// ---------------------------------------------------------------------------
// Hardened numeric parsing.
// ---------------------------------------------------------------------------

NumberParse parse_double_prefix(const std::string& token) {
  NumberParse out;
  // Scan the strictly-decimal prefix by hand so std::stod never sees the
  // forms it would happily accept: "inf", "nan", "0x1p3", leading blanks.
  std::size_t i = 0;
  const std::size_t n = token.size();
  const auto digit = [&](std::size_t k) {
    return k < n && std::isdigit(static_cast<unsigned char>(token[k])) != 0;
  };
  if (i < n && (token[i] == '+' || token[i] == '-')) ++i;
  const std::size_t mantissa_start = i;
  while (digit(i)) ++i;
  if (i < n && token[i] == '.') {
    ++i;
    while (digit(i)) ++i;
  }
  if (i == mantissa_start || (i == mantissa_start + 1 && token[mantissa_start] == '.')) {
    out.error = "not a decimal number";
    return out;
  }
  if (i < n && (token[i] == 'e' || token[i] == 'E')) {
    // Only consume the exponent when it is well-formed; otherwise the 'e'
    // is a (bad) unit suffix and stays with the caller.
    std::size_t j = i + 1;
    if (j < n && (token[j] == '+' || token[j] == '-')) ++j;
    if (digit(j)) {
      while (digit(j)) ++j;
      i = j;
    }
  }
  const std::string prefix = token.substr(0, i);
  try {
    std::size_t pos = 0;
    out.value = std::stod(prefix, &pos);  // ssnlint-ignore(SSN-L007)
    if (pos != prefix.size()) {
      out.error = "not a decimal number";
      return out;
    }
  } catch (const std::out_of_range&) {
    out.error = "number out of range for a double ('" + prefix + "')";
    return out;
  } catch (const std::invalid_argument&) {
    out.error = "not a decimal number";
    return out;
  }
  if (!std::isfinite(out.value)) {
    out.error = "non-finite value ('" + prefix + "')";
    return out;
  }
  out.ok = true;
  out.consumed = i;
  return out;
}

IntParse parse_int_strict(const std::string& token) {
  IntParse out;
  std::size_t i = 0;
  const std::size_t n = token.size();
  if (i < n && (token[i] == '+' || token[i] == '-')) ++i;
  const std::size_t first_digit = i;
  while (i < n && std::isdigit(static_cast<unsigned char>(token[i])) != 0) ++i;
  if (i == first_digit || i != n) {
    out.error = "not an integer";
    return out;
  }
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(token, &pos);  // ssnlint-ignore(SSN-L007)
    if (pos != token.size()) {
      out.error = "not an integer";
      return out;
    }
    if (v > std::numeric_limits<int>::max() ||
        v < std::numeric_limits<int>::min()) {
      out.error = "integer out of range";
      return out;
    }
    out.value = static_cast<int>(v);
  } catch (const std::out_of_range&) {
    out.error = "integer out of range";
    return out;
  } catch (const std::invalid_argument&) {
    out.error = "not an integer";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace ssnkit::io
