#include "waveform/metrics.hpp"

#include "support/contracts.hpp"

#include <cmath>
#include <stdexcept>

namespace ssnkit::waveform {

std::optional<double> first_rising_crossing(const Waveform& w, double level) {
  for (std::size_t i = 1; i < w.size(); ++i) {
    const double v0 = w.value(i - 1);
    const double v1 = w.value(i);
    if (v0 < level && v1 >= level) {
      const double frac = (level - v0) / (v1 - v0);
      return w.time(i - 1) + frac * (w.time(i) - w.time(i - 1));
    }
  }
  return std::nullopt;
}

std::optional<double> first_falling_crossing(const Waveform& w, double level) {
  for (std::size_t i = 1; i < w.size(); ++i) {
    const double v0 = w.value(i - 1);
    const double v1 = w.value(i);
    if (v0 > level && v1 <= level) {
      const double frac = (v0 - level) / (v0 - v1);
      return w.time(i - 1) + frac * (w.time(i) - w.time(i - 1));
    }
  }
  return std::nullopt;
}

WaveformError compare(const Waveform& model, const Waveform& reference,
                      double t0, double t1) {
  SSN_REQUIRE(!model.empty() && !reference.empty(), "compare: empty waveform");
  SSN_REQUIRE(t1 > t0, "compare: empty window");

  WaveformError err;
  double ref_peak = 0.0;
  double model_peak = 0.0;
  double sum_sq = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double t = reference.time(i);
    if (t < t0 || t > t1) continue;
    const double r = reference.value(i);
    const double m = model.sample(t);
    const double d = std::fabs(m - r);
    err.max_abs = std::max(err.max_abs, d);
    sum_sq += d * d;
    ++count;
    ref_peak = std::max(ref_peak, std::fabs(r));
    model_peak = std::max(model_peak, std::fabs(m));
  }
  SSN_REQUIRE(count > 0, "compare: no reference samples in window");
  err.rms_abs = std::sqrt(sum_sq / double(count));
  err.peak_rel =
      ref_peak > 0.0 ? std::fabs(model_peak - ref_peak) / ref_peak : 0.0;
  err.norm_max_abs = ref_peak > 0.0 ? err.max_abs / ref_peak : err.max_abs;
  return err;
}

}  // namespace ssnkit::waveform
