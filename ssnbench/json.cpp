#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ssnbench {

const Json& Json::at(const std::string& key) const {
  const auto it = object.find(key);
  if (it == object.end())
    throw std::runtime_error("json: missing key '" + key + "'");
  return it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected key");
        std::string key = string();
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') fail("expected ':'");
        ++pos_;
        v.object[key] = value();
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return v;
        }
        fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(value());
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return v;
        }
        fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      v.string = string();
      return v;
    }
    if (consume("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      v.type = Json::Type::kBool;
      return v;
    }
    if (consume("null")) return v;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin) fail("bad value");
    v.type = Json::Type::kNumber;
    pos_ += std::size_t(end - begin);
    return v;
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // The benchmark's own files are ASCII; keep the code point's
            // low byte, which is exact for that range.
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            c = char(std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default: c = e; break;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return Parser(ss.str()).document();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace ssnbench
