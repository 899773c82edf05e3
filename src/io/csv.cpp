#include "io/csv.hpp"

#include "support/atomic_file.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ssnkit::io {

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("CsvWriter: no headers");
}

void CsvWriter::add_row(const std::vector<double>& row) {
  if (row.size() != headers_.size())
    throw std::invalid_argument("CsvWriter::add_row: width mismatch");
  rows_.push_back(row);
}

void CsvWriter::write(std::ostream& os) const {
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    if (i) os << ',';
    os << headers_[i];
  }
  os << '\n';
  os.precision(12);
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << row[i];
    }
    os << '\n';
  }
  if (!os)
    throw IoError(IoError::Kind::kWriteFailed, "<stream>",
                  "stream entered a failed state while writing " +
                      std::to_string(rows_.size()) + " CSV rows");
}

void CsvWriter::write_file(const std::string& path) const {
  // Render fully in memory, then publish atomically: a reader (or a crash)
  // never observes a half-written CSV, and an interrupted batch that
  // rewrites its output file cannot truncate a previous good version.
  std::ostringstream buffer;
  write(buffer);
  support::write_file_atomic(path, buffer.str());
}

}  // namespace ssnkit::io
