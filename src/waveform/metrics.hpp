// Waveform comparison and measurement utilities: threshold crossings and
// the error metrics used to report model-vs-simulator agreement (the
// paper's "within 3% of HSPICE" claim).
#pragma once

#include "waveform/waveform.hpp"

#include <optional>

namespace ssnkit::waveform {

/// First time the waveform crosses `level` going upward (value moves from
/// below to at-or-above), linearly interpolated. nullopt when never.
std::optional<double> first_rising_crossing(const Waveform& w, double level);

/// First time the waveform crosses `level` going downward.
std::optional<double> first_falling_crossing(const Waveform& w, double level);

/// Error metrics between a model waveform and a reference, evaluated at the
/// reference's time points inside a window.
struct WaveformError {
  double max_abs = 0.0;        ///< max |model - ref|
  double rms_abs = 0.0;        ///< RMS of |model - ref|
  double peak_rel = 0.0;       ///< |max(model) - max(ref)| / |max(ref)|
  double norm_max_abs = 0.0;   ///< max_abs / max |ref|
};
/// Compare at the reference's time points inside [t0, t1].
WaveformError compare(const Waveform& model, const Waveform& reference,
                      double t0, double t1);

}  // namespace ssnkit::waveform
