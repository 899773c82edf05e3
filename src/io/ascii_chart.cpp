#include "io/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ssnkit::io {

namespace {

constexpr char kGlyphs[] = {'*', '+', 'o', 'x', '#', '@'};
constexpr int kChartHeight = 18;  // plot rows

}  // namespace

std::string ascii_series_chart(
    const std::vector<std::vector<std::pair<double, double>>>& series,
    const std::vector<std::string>& names, const ChartOptions& opts) {
  if (series.empty()) throw std::invalid_argument("ascii_chart: no series");
  if (series.size() != names.size())
    throw std::invalid_argument("ascii_chart: names/series mismatch");
  const int w = kChartWidth;
  const int h = kChartHeight;

  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = xmin, ymax = -xmin;
  for (const auto& s : series)
    for (const auto& [x, y] : s) {
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
  if (!(xmax > xmin)) xmax = xmin + 1.0;
  if (!(ymax > ymin)) {
    ymax = ymin + 1.0;
    ymin -= 1.0;
  }
  // Pad the y range slightly so extrema are not drawn on the frame.
  const double ypad = 0.05 * (ymax - ymin);
  ymin -= ypad;
  ymax += ypad;

  std::vector<std::string> grid(std::size_t(h), std::string(std::size_t(w), ' '));
  for (std::size_t s = 0; s < series.size(); ++s) {
    const char glyph = kGlyphs[s % sizeof(kGlyphs)];
    for (const auto& [x, y] : series[s]) {
      const int col = int(std::lround((x - xmin) / (xmax - xmin) * (w - 1)));
      const int row = int(std::lround((ymax - y) / (ymax - ymin) * (h - 1)));
      if (col >= 0 && col < w && row >= 0 && row < h)
        grid[std::size_t(row)][std::size_t(col)] = glyph;
    }
  }

  std::ostringstream os;
  if (!opts.title.empty()) os << "  " << opts.title << '\n';
  char buf[64];
  for (int r = 0; r < h; ++r) {
    if (r == 0)
      std::snprintf(buf, sizeof buf, "%10.3g |", ymax);
    else if (r == h - 1)
      std::snprintf(buf, sizeof buf, "%10.3g |", ymin);
    else
      std::snprintf(buf, sizeof buf, "%10s |", "");
    os << buf << grid[std::size_t(r)] << '\n';
  }
  os << std::string(11, ' ') << '+' << std::string(std::size_t(w), '-') << '\n';
  std::snprintf(buf, sizeof buf, "%.3g", xmin);
  std::string footer = std::string(12, ' ') + buf;
  std::snprintf(buf, sizeof buf, "%.3g", xmax);
  const std::string xmax_s = buf;
  if (footer.size() + xmax_s.size() + 1 < std::size_t(w) + 12)
    footer += std::string(std::size_t(w) + 12 - footer.size() - xmax_s.size(), ' ') +
              xmax_s;
  os << footer << "  [" << opts.x_label << "]\n";
  os << "  legend:";
  for (std::size_t s = 0; s < names.size(); ++s)
    os << "  " << kGlyphs[s % sizeof(kGlyphs)] << " = " << names[s];
  os << "   [" << opts.y_label << "]\n";
  return os.str();
}

std::string ascii_xy_chart(const std::vector<double>& x,
                           const std::vector<std::vector<double>>& ys,
                           const std::vector<std::string>& names,
                           const ChartOptions& opts) {
  std::vector<std::vector<std::pair<double, double>>> pts;
  for (const auto& y : ys) {
    if (y.size() != x.size())
      throw std::invalid_argument("ascii_xy_chart: series length mismatch");
    std::vector<std::pair<double, double>> p;
    for (std::size_t i = 0; i < x.size(); ++i) p.emplace_back(x[i], y[i]);
    pts.push_back(std::move(p));
  }
  return ascii_series_chart(pts, names, opts);
}

}  // namespace ssnkit::io
