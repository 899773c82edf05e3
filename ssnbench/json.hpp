// Minimal JSON and file I/O for the benchmark's own files (spec.json,
// BENCHMARK.json, reference/seed*.json, out/). Deliberately independent of
// src/serve/json.hpp: the harness must keep reading its files when the
// program's APIs are renamed, and only layers.cpp may call into src/.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace ssnbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const { return object.count(key) != 0; }
  /// Member lookup; throws std::runtime_error naming the key when absent.
  const Json& at(const std::string& key) const;
  double num(const std::string& key) const { return at(key).number; }
  const std::string& str(const std::string& key) const {
    return at(key).string;
  }
};

/// Read and parse a whole file; throws std::runtime_error naming the file
/// and the byte offset on malformed input.
Json read_json_file(const std::string& path);
/// Write `text` to `path`; throws std::runtime_error on failure.
void write_file(const std::string& path, const std::string& text);

/// A double as JSON with all 17 significant digits (round-trips exactly);
/// non-finite values become null.
std::string json_num(double v);
/// A quoted, escaped JSON string.
std::string json_str(const std::string& s);

}  // namespace ssnbench
