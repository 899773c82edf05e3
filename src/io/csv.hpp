// CSV output for the bench harnesses: the figure benches write their data
// here so it can be re-plotted with any external tool.
#pragma once

#include "io/diagnostics.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace ssnkit::io {

/// Column-oriented CSV writer: set headers once, append rows.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  std::size_t column_count() const { return headers_.size(); }
  std::size_t row_count() const { return rows_.size(); }

  /// Throws std::invalid_argument when the row width mismatches.
  void add_row(const std::vector<double>& row);

  /// Throws IoError{kWriteFailed} when the stream enters a failed state
  /// (disk full, broken pipe) — a short CSV must never pass silently.
  void write(std::ostream& os) const;
  /// Throws IoError{kOpenFailed} when the file cannot be created and
  /// IoError{kWriteFailed} when flushing the bytes out fails.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace ssnkit::io
