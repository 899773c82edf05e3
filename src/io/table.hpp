// Aligned plain-text tables — the bench binaries print the paper's
// figures/tables as rows through this.
#pragma once

#include <string>
#include <vector>

namespace ssnkit::io {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Preformatted cells; width must match the header count.
  void add_row(std::vector<std::string> cells);
  /// Numeric convenience: cells formatted with %.*g.
  void add_row(const std::vector<double>& cells, int precision = 5);

  std::size_t row_count() const { return rows_.size(); }

  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with engineering-style SI suffix ("5n", "1.2p", "18G").
std::string si_format(double value, int digits = 4);

}  // namespace ssnkit::io
