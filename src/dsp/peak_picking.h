#pragma once

#include <optional>
#include <span>
#include <vector>

namespace uniq::dsp {

/// A detected tap (peak) in an impulse response.
struct Tap {
  double position = 0.0;   ///< sample index, sub-sample refined
  double amplitude = 0.0;  ///< |h| at the interpolated peak
};

/// Options controlling first-tap detection.
struct FirstTapOptions {
  /// A local max counts as a tap only if |h| >= threshold * max|h|.
  double relativeThreshold = 0.35;
  /// Ignore this many samples at the start (deconvolution edge artifacts).
  std::size_t skipSamples = 0;
};

/// Find the earliest significant peak of |h|. This is the "first tap" the
/// paper uses: the diffraction path arrives before all face/pinna
/// reflections and room echoes (Section 4.1, Figure 9). Returns nullopt
/// when the response has no sample above the threshold.
std::optional<Tap> findFirstTap(std::span<const double> h,
                                const FirstTapOptions& opts = {});

/// All local maxima of |h| above the relative threshold, sorted by position.
std::vector<Tap> findTaps(std::span<const double> h,
                          const FirstTapOptions& opts = {});

}  // namespace uniq::dsp
