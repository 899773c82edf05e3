#include "waveform/waveform.hpp"

#include "support/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssnkit::waveform {

Waveform::Waveform(std::vector<double> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  SSN_REQUIRE(times_.size() == values_.size(),
              "Waveform: times/values size mismatch");
  for (std::size_t i = 1; i < times_.size(); ++i)
    SSN_REQUIRE(times_[i] > times_[i - 1],
                "Waveform: times must be strictly increasing");
}

Waveform Waveform::from_function(const std::function<double(double)>& f,
                                 double t0, double t1, std::size_t points) {
  SSN_REQUIRE(points >= 2, "Waveform::from_function: need >= 2 points");
  SSN_REQUIRE(t1 > t0, "Waveform::from_function: t1 must be > t0");
  std::vector<double> ts(points), vs(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = t0 + (t1 - t0) * double(i) / double(points - 1);
    ts[i] = t;
    vs[i] = f(t);
  }
  return Waveform(std::move(ts), std::move(vs));
}

double Waveform::t_begin() const {
  if (empty()) throw std::runtime_error("Waveform::t_begin: empty waveform");
  return times_.front();
}

double Waveform::t_end() const {
  if (empty()) throw std::runtime_error("Waveform::t_end: empty waveform");
  return times_.back();
}

void Waveform::append(double t, double v) {
  SSN_REQUIRE(times_.empty() || t > times_.back(),
              "Waveform::append: time must increase");
  times_.push_back(t);
  values_.push_back(v);
}

double Waveform::sample(double t) const {
  if (empty()) throw std::runtime_error("Waveform::sample: empty waveform");
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = std::size_t(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double w = (t - times_[lo]) / span;
  return (1.0 - w) * values_[lo] + w * values_[hi];
}

Waveform::Extremum Waveform::maximum() const {
  if (empty()) throw std::runtime_error("Waveform::maximum: empty waveform");
  std::size_t best = 0;
  for (std::size_t i = 1; i < size(); ++i)
    if (values_[i] > values_[best]) best = i;
  return {times_[best], values_[best]};
}

Waveform::Extremum Waveform::minimum() const {
  if (empty()) throw std::runtime_error("Waveform::minimum: empty waveform");
  std::size_t best = 0;
  for (std::size_t i = 1; i < size(); ++i)
    if (values_[i] < values_[best]) best = i;
  return {times_[best], values_[best]};
}

Waveform::Extremum Waveform::maximum_in(double t0, double t1) const {
  if (t0 > t1) std::swap(t0, t1);
  Extremum best{t0, sample(t0)};
  const double at_t1 = sample(t1);
  if (at_t1 > best.value) best = {t1, at_t1};
  for (std::size_t i = 0; i < size(); ++i) {
    if (times_[i] < t0 || times_[i] > t1) continue;
    if (values_[i] > best.value) best = {times_[i], values_[i]};
  }
  return best;
}

Waveform Waveform::windowed(double t0, double t1) const {
  if (t0 > t1) std::swap(t0, t1);
  Waveform out;
  out.append(t0, sample(t0));
  for (std::size_t i = 0; i < size(); ++i)
    if (times_[i] > t0 && times_[i] < t1) out.append(times_[i], values_[i]);
  if (t1 > out.t_end()) out.append(t1, sample(t1));
  return out;
}

Waveform Waveform::scaled(double s) const {
  Waveform out = *this;
  for (double& v : out.values_) v *= s;
  return out;
}

Waveform Waveform::shifted(double dv) const {
  Waveform out = *this;
  for (double& v : out.values_) v += dv;
  return out;
}

}  // namespace ssnkit::waveform
