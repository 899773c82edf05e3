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
  write_csv_line(os, headers_);
  os.precision(17);
  for (const auto& row : rows_) write_csv_line(os, row);
  if (!os)
    throw IoError(IoError::Kind::kWriteFailed, "<stream>",
                  "stream entered a failed state while writing " +
                      std::to_string(rows_.size()) + " CSV rows");
}

void CsvWriter::write_file(const std::string& path) const {
  // Render fully in memory, then publish atomically: an interrupted batch
  // that rewrites its output file cannot truncate a previous good version.
  std::ostringstream buffer;
  write(buffer);
  support::write_file_atomic(path, buffer.str());
}

}  // namespace ssnkit::io
