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

/// First-tap detection threshold relative to the response peak, as channel
/// extraction and known-source AoA use it.
inline constexpr double kFirstTapRelativeThreshold = 0.35;

/// Find the earliest significant peak of |h|: a local max counts as a tap
/// only if |h| >= relativeThreshold * max|h|. This is the "first tap" the
/// paper uses: the diffraction path arrives before all face/pinna
/// reflections and room echoes (Section 4.1, Figure 9). Returns nullopt
/// when the response has no sample above the threshold.
std::optional<Tap> findFirstTap(
    std::span<const double> h,
    double relativeThreshold = kFirstTapRelativeThreshold);

/// All local maxima of |h| above the relative threshold, sorted by position.
std::vector<Tap> findTaps(
    std::span<const double> h,
    double relativeThreshold = kFirstTapRelativeThreshold);

}  // namespace uniq::dsp
