// Terminal line charts so the bench binaries can show the *shape* of each
// paper figure directly in their output (no plotting stack needed). This
// layer renders plain (x, y) point series only; the adapters that chart
// Waveforms live above, in waveform/render.hpp (io sits below waveform in
// the include DAG — SSN-L010).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ssnkit::io {

/// Plot columns of every chart.
inline constexpr int kChartWidth = 72;

struct ChartOptions {
  std::string title;
  std::string x_label = "t";
  std::string y_label = "v";
};

/// Render one or more point series on a shared axis. Each series is drawn
/// with its own glyph ('*', '+', 'o', 'x', '#', '@', in that order) and
/// listed in the legend with its name. Throws std::invalid_argument on an
/// empty series list or a names/series size mismatch.
std::string ascii_series_chart(
    const std::vector<std::vector<std::pair<double, double>>>& series,
    const std::vector<std::string>& names, const ChartOptions& opts = {});

/// Scatter-style chart from x/y arrays (used by the sweep benches).
std::string ascii_xy_chart(const std::vector<double>& x,
                           const std::vector<std::vector<double>>& ys,
                           const std::vector<std::string>& names,
                           const ChartOptions& opts = {});

}  // namespace ssnkit::io
