#include "serve/json.hpp"

#include "io/diagnostics.hpp"

#include <charconv>
#include <cmath>

namespace ssnkit::serve {

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

namespace {

/// Recursive-descent parser over a byte range. Errors are reported by
/// filling `err`/`err_off` and returning false all the way up; the public
/// wrapper translates that into a JsonParse.
class Parser {
 public:
  Parser(const std::string& text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  bool parse_document(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size())
      return fail(pos_, "trailing characters after JSON value");
    return true;
  }

  const std::string& error() const { return err_; }
  std::size_t error_offset() const { return err_off_; }

 private:
  bool fail(std::size_t offset, const std::string& what) {
    // Keep the first (deepest) error; callers unwind without overwriting.
    if (err_.empty()) {
      err_ = what;
      err_off_ = offset;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume_literal(const char* literal) {
    const std::size_t start = pos_;
    for (const char* p = literal; *p != '\0'; ++p, ++pos_) {
      if (at_end() || peek() != *p) {
        pos_ = start;
        return false;
      }
    }
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > max_depth_)
      return fail(pos_, "nesting deeper than " + std::to_string(max_depth_) +
                            " levels");
    if (at_end()) return fail(pos_, "unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        if (!consume_literal("true")) return fail(pos_, "invalid literal");
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (!consume_literal("false")) return fail(pos_, "invalid literal");
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (!consume_literal("null")) return fail(pos_, "invalid literal");
        out.kind = JsonValue::Kind::kNull;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"')
        return fail(pos_, "expected string key in object");
      const std::size_t key_off = pos_;
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr)
        return fail(key_off, "duplicate key '" + key + "'");
      skip_ws();
      if (at_end() || peek() != ':')
        return fail(pos_, "expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail(pos_, "unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail(pos_, "expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue element;
      if (!parse_value(element, depth + 1)) return false;
      out.elements.push_back(std::move(element));
      skip_ws();
      if (at_end()) return fail(pos_, "unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail(pos_, "expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    const std::size_t start = pos_;
    ++pos_;  // '"'
    out.clear();
    while (true) {
      if (at_end()) return fail(start, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail(pos_ - 1, "raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return fail(start, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (at_end()) return fail(start, "unterminated \\u escape");
            const char h = text_[pos_++];
            int digit;
            if (h >= '0' && h <= '9')
              digit = h - '0';
            else if (h >= 'a' && h <= 'f')
              digit = 10 + (h - 'a');
            else if (h >= 'A' && h <= 'F')
              digit = 10 + (h - 'A');
            else
              return fail(pos_ - 1, "bad hex digit in \\u escape");
            code = (code << 4) | unsigned(digit);
          }
          // UTF-8 encode the BMP code point. Surrogates are rejected:
          // request fields are identifiers and SI numbers, never astral
          // text, and accepting lone surrogates is how parsers get CVEs.
          if (code >= 0xD800 && code <= 0xDFFF)
            return fail(pos_ - 6, "surrogate \\u escapes are not supported");
          if (code < 0x80) {
            out.push_back(char(code));
          } else if (code < 0x800) {
            out.push_back(char(0xC0 | (code >> 6)));
            out.push_back(char(0x80 | (code & 0x3F)));
          } else {
            out.push_back(char(0xE0 | (code >> 12)));
            out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(char(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail(pos_ - 1, "unknown escape sequence");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    // JSON's number grammar is a strict subset of what the hardened prefix
    // parser accepts, so delegate the conversion to the tree's one
    // sanctioned stod site and only police the JSON-specific restrictions
    // (no leading '+', no leading zeros like "01") here.
    if (peek() == '+') return fail(pos_, "JSON numbers cannot start with '+'");
    std::size_t digits = pos_;
    if (!at_end() && text_[digits] == '-') ++digits;
    if (digits >= text_.size() || text_[digits] < '0' || text_[digits] > '9')
      return fail(start, "JSON numbers need a digit before the point");
    if (digits + 1 < text_.size() && text_[digits] == '0' &&
        text_[digits + 1] >= '0' && text_[digits + 1] <= '9')
      return fail(start, "leading zeros are not valid JSON");
    const io::NumberParse parsed = io::parse_double_prefix(text_.substr(pos_));
    if (!parsed.ok || parsed.consumed == 0)
      return fail(start, parsed.error.empty() ? "invalid number"
                                              : parsed.error);
    pos_ += parsed.consumed;
    out.kind = JsonValue::Kind::kNumber;
    out.number = parsed.value;
    return true;
  }

  const std::string& text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::string err_;
  std::size_t err_off_ = 0;
};

}  // namespace

JsonParse parse_json(const std::string& text, std::size_t max_depth,
                     std::size_t max_bytes) {
  JsonParse out;
  if (text.size() > max_bytes) {
    out.error = "input exceeds " + std::to_string(max_bytes) + " bytes";
    out.offset = max_bytes;
    return out;
  }
  Parser parser(text, max_depth);
  if (!parser.parse_document(out.value)) {
    out.error = parser.error();
    out.offset = parser.error_offset();
    return out;
  }
  out.ok = true;
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    const char* what = std::isnan(value)
                           ? "NaN"
                           : (value > 0.0 ? "+infinity" : "-infinity");
    throw NonFiniteJsonError(std::string("non-finite double (") + what +
                             ") in a JSON payload");
  }
  // printf's %.17g: 17 significant digits round-trip every finite double.
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::general, 17);
  return std::string(buf, end.ptr);
}

std::string json_number_or_null(double value) {
  if (!std::isfinite(value)) return "null";
  return json_number(value);
}

}  // namespace ssnkit::serve
