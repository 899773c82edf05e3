#include "io/table.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ssnkit::io {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("TextTable::add_row: width mismatch");
  rows_.push_back(std::move(cells));
}

void TextTable::add_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  char buf[64];
  for (double v : cells) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    formatted.emplace_back(buf);
  }
  add_row(std::move(formatted));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-");
    os << std::string(widths[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string si_format(double value, int digits) {
  if (value == 0.0) return "0";  // ssnlint-ignore(SSN-L001)
  static constexpr struct {
    double scale = 0.0;
    const char* suffix;
  } kScales[] = {{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
                 {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"}};
  const double mag = std::fabs(value);
  for (const auto& s : kScales) {
    if (mag >= s.scale * 0.9995) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*g%s", digits, value / s.scale, s.suffix);
      return buf;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, value);
  return buf;
}

}  // namespace ssnkit::io
