// Minimal JSON support for the serve protocol: a strict, depth- and
// size-capped parser for newline-delimited request objects, plus the
// escaping helpers the response renderer needs.
//
// This is deliberately not a general JSON library. The daemon's requests
// are single-line objects of scalar fields; the parser accepts the full
// JSON value grammar (so a malformed client gets a precise diagnostic
// rather than a crash) but caps nesting depth and input size, rejects the
// non-decimal number forms the hardened io parsers reject (inf/nan/hex —
// numbers route through io::parse_double_prefix, the tree's only sanctioned
// stod site), and reports the byte offset of the first error so the
// SSN-E063 diagnostic can point at it.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ssnkit::serve {

/// A parsed JSON value. Object members keep their source order so duplicate
/// keys can be diagnosed instead of silently last-wins.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  std::vector<JsonValue> elements;                         ///< kArray

  bool is_object() const { return kind == Kind::kObject; }
  /// First member with this key, or nullptr.
  const JsonValue* find(const std::string& key) const;
};

/// Outcome of parsing one request line.
struct JsonParse {
  bool ok = false;
  JsonValue value;
  std::string error;       ///< set when !ok
  std::size_t offset = 0;  ///< byte offset of the error (0-based)
};

/// Parse a complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error). `max_depth` bounds object/array
/// nesting; `max_bytes` bounds the input (both typed errors, not crashes).
JsonParse parse_json(const std::string& text, std::size_t max_depth = 16,
                     std::size_t max_bytes = 1 << 20);

/// Escape a string for embedding between double quotes in JSON output.
std::string json_escape(const std::string& text);

/// Thrown by json_number when a payload double is NaN or infinite. JSON
/// cannot express non-finite values, and silently rendering them as null
/// would serve a corrupted number as a valid-looking response — the exact
/// "silently wrong" failure the trust layer exists to stop. The server maps
/// this onto a typed SSN-E067 error response.
class NonFiniteJsonError : public std::runtime_error {
 public:
  explicit NonFiniteJsonError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Render a double as a JSON number token. Finite values round-trip at 17
/// significant digits (printf's %.17g); non-finite values throw
/// NonFiniteJsonError — use
/// json_number_or_null for fields where "not computed" is a legal state.
std::string json_number(double value);

/// Like json_number, but renders non-finite values as an explicit null.
/// Only for optional fields whose absence is meaningful (e.g. a trust
/// report's condition estimate when the estimator did not run) — result
/// payload numbers go through the strict json_number.
std::string json_number_or_null(double value);

}  // namespace ssnkit::serve
