// Waveform presentation adapters: terminal charts of sampled waveforms.
// These sit in the waveform layer on purpose —
// the generic renderers in io know nothing about Waveform (io is below
// waveform in the include DAG, SSN-L010); this header adapts Waveforms onto
// io's point-series primitives.
#pragma once

#include "io/ascii_chart.hpp"
#include "waveform/waveform.hpp"

#include <string>
#include <vector>

namespace ssnkit::waveform {

/// Render one or more waveforms on a shared axis (resampled densely so the
/// lines look continuous). Each series is drawn with its own glyph and
/// listed in the legend with its name.
std::string ascii_chart(const std::vector<const Waveform*>& series,
                        const std::vector<std::string>& names,
                        const io::ChartOptions& opts = {});

/// Convenience overload for a single waveform.
std::string ascii_chart(const Waveform& wave, const io::ChartOptions& opts = {});

}  // namespace ssnkit::waveform
