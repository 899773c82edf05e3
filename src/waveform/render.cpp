#include "waveform/render.hpp"

#include <stdexcept>
#include <utility>

namespace ssnkit::waveform {

namespace {

/// Resample each waveform densely over its own span (two samples per chart
/// column) so chart lines look continuous.
std::vector<std::vector<std::pair<double, double>>> dense_points(
    const std::vector<const Waveform*>& series) {
  std::vector<std::vector<std::pair<double, double>>> pts;
  for (const auto* wv : series) {
    if (wv == nullptr || wv->empty())
      throw std::invalid_argument("ascii_chart: null/empty waveform");
    std::vector<std::pair<double, double>> p;
    const int n = io::kChartWidth * 2;
    for (int i = 0; i < n; ++i) {
      const double t = wv->t_begin() +
                       (wv->t_end() - wv->t_begin()) * double(i) / double(n - 1);
      p.emplace_back(t, wv->sample(t));
    }
    pts.push_back(std::move(p));
  }
  return pts;
}

}  // namespace

std::string ascii_chart(const std::vector<const Waveform*>& series,
                        const std::vector<std::string>& names,
                        const io::ChartOptions& opts) {
  if (series.empty()) throw std::invalid_argument("ascii_chart: no series");
  return io::ascii_series_chart(dense_points(series), names, opts);
}

std::string ascii_chart(const Waveform& wave, const io::ChartOptions& opts) {
  return ascii_chart({&wave}, {opts.y_label}, opts);
}

}  // namespace ssnkit::waveform
