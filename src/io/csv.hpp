// CSV output: the figure benches write their data here so it can be
// re-plotted with any external tool, and the CLI writes its --out artifacts.
#pragma once

#include "io/diagnostics.hpp"

#include <ostream>
#include <string>
#include <vector>

namespace ssnkit::io {

/// One CSV line: `values` comma-separated at the stream's precision. The
/// CLI prints its stdout CSVs with it at the default six digits.
template <typename T>
void write_csv_line(std::ostream& os, const std::vector<T>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os << ',';
    os << values[i];
  }
  os << '\n';
}

/// Column-oriented CSV writer: set headers once, append rows. Values print
/// at 17 significant digits, which round-trips every double, so a clean run
/// and an interrupted-then-resumed run write the same bytes.
class CsvWriter {
 public:
  /// Throws std::invalid_argument when `headers` is empty.
  explicit CsvWriter(std::vector<std::string> headers);

  std::size_t row_count() const { return rows_.size(); }

  /// Throws std::invalid_argument when the row width mismatches.
  void add_row(const std::vector<double>& row);

  /// Throws IoError{kWriteFailed} when the stream enters a failed state
  /// (disk full, broken pipe) — a short CSV must never pass silently.
  void write(std::ostream& os) const;
  /// Publishes atomically: a reader (or a crash) never sees a half-written
  /// file. Throws IoError{kOpenFailed} when the file cannot be created and
  /// IoError{kWriteFailed} when flushing the bytes out fails.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace ssnkit::io
