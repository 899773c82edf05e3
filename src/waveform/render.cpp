#include "waveform/render.hpp"

#include "support/atomic_file.hpp"

#include <ostream>
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

void write_waveforms_csv(std::ostream& os, const std::vector<std::string>& names,
                         const std::vector<const Waveform*>& waves) {
  if (names.size() != waves.size())
    throw std::invalid_argument("write_waveforms_csv: names/waves mismatch");
  if (waves.empty() || waves[0] == nullptr || waves[0]->empty())
    throw std::invalid_argument(
        "write_waveforms_csv: need a non-empty lead waveform");
  os << "time";
  for (const auto& n : names) os << ',' << n;
  os << '\n';
  os.precision(12);
  for (std::size_t i = 0; i < waves[0]->size(); ++i) {
    const double t = waves[0]->time(i);
    os << t;
    for (const auto* w : waves) os << ',' << w->sample(t);
    os << '\n';
  }
  if (!os)
    throw support::IoError(support::IoError::Kind::kWriteFailed, "<stream>",
                           "stream entered a failed state while writing "
                           "waveforms");
}

}  // namespace ssnkit::waveform
