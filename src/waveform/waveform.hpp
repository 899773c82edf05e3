// Sampled signal container. Both the transient simulator output and the
// closed-form model evaluations are materialized as Waveforms so they can
// be compared point-by-point.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace ssnkit::waveform {

/// A piecewise-linear sampled signal v(t) with strictly increasing time
/// points. Sampling between points interpolates linearly; sampling outside
/// the span clamps to the end values.
class Waveform {
 public:
  Waveform() = default;
  /// Throws std::invalid_argument when sizes differ or time is not strictly
  /// increasing.
  Waveform(std::vector<double> times, std::vector<double> values);

  /// Sample a callable f(t) at `points` equidistant times on [t0, t1].
  static Waveform from_function(const std::function<double(double)>& f,
                                double t0, double t1, std::size_t points);

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  double time(std::size_t i) const { return times_[i]; }
  double value(std::size_t i) const { return values_[i]; }

  double t_begin() const;
  double t_end() const;

  /// Append a sample; t must be greater than the current last time.
  void append(double t, double v);

  /// Linear interpolation (clamped outside the span). Throws on empty.
  double sample(double t) const;

  /// Largest value and the time where it occurs.
  struct Extremum {
    double t = 0.0;
    double value = 0.0;
  };
  Extremum maximum() const;
  Extremum minimum() const;
  /// Maximum restricted to t in [t0, t1] (samples interpolated at the
  /// window edges are included).
  Extremum maximum_in(double t0, double t1) const;

  /// Restrict to the window [t0, t1], interpolating the window edges.
  Waveform windowed(double t0, double t1) const;

  /// Pointwise value transforms: v -> s·v and v -> v + dv.
  Waveform scaled(double s) const;
  Waveform shifted(double dv) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace ssnkit::waveform
