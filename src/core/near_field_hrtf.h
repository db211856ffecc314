#pragma once

#include <vector>

#include "core/channel_extractor.h"
#include "core/sensor_fusion.h"
#include "head/head_parameters.h"
#include "head/hrir.h"

namespace uniq::core {

/// Continuous-angle near-field HRTF table on a 1-degree grid over [0, 180]
/// (the measured left hemicircle). Entry k is the HRIR for a source at
/// k degrees and radius `medianRadiusM`.
struct NearFieldTable {
  std::vector<head::Hrir> byDegree;  ///< 181 entries
  /// Model first-tap positions (samples) for each degree and ear, recorded
  /// so downstream stages can re-align channels coherently.
  std::vector<double> tapLeftSamples;
  std::vector<double> tapRightSamples;
  double sampleRate = 0.0;
  head::HeadParameters headParams;
  double medianRadiusM = 0.0;
  /// Angles (deg, ascending) of the usable stops the table was interpolated
  /// from. Lets callers audit coverage: a wide gap between consecutive
  /// entries means the degrees in between are long-range extrapolations.
  std::vector<double> sourceAnglesDeg;

  const head::Hrir& at(double thetaDeg) const;
};

/// HRIR length (samples) of every near- and far-field table entry.
inline constexpr std::size_t kHrirLength = 192;
/// Anchor sample where the earlier ear's first tap sits in a near-field
/// table entry.
inline constexpr double kNearFieldAlignSample = 24.0;
/// Boundary discretization of the head model the near-field and near-far
/// stages trace their diffraction paths on (finer than fusion's).
inline constexpr std::size_t kTableBoundaryResolution = 256;
/// Creeping-wave attenuation (nepers per meter of arc) of the model level
/// corrections; mirrors the physical constant, not fitted.
inline constexpr double kArcAttenuationNepersPerMeter = 8.0;

struct NearFieldBuilderOptions {
  /// Re-impose model-expected relative delays and blend amplitudes
  /// (Section 4.2: "adjust the channel taps to match the expected
  /// time-difference and the amplitudes"). Disable for ablation.
  bool modelCorrection = true;
};

/// Builds the interpolated near-field HRTF from fused stops and their
/// extracted channels (paper Section 4.2).
class NearFieldHrtfBuilder {
 public:
  using Options = NearFieldBuilderOptions;

  explicit NearFieldHrtfBuilder(Options opts = {});

  /// `stops` and `channels` are parallel arrays (one per calibration stop).
  /// Stops that failed localization or tap detection are skipped.
  NearFieldTable build(const std::vector<FusedStop>& stops,
                       const std::vector<BinauralChannel>& channels,
                       const head::HeadParameters& headParams) const;

 private:
  Options opts_;
};

}  // namespace uniq::core
