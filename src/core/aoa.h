#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/near_far.h"

namespace uniq::core {

/// Result of a binaural angle-of-arrival estimate.
struct AoaEstimate {
  double angleDeg = 0.0;
  /// Value of the matching objective at the winning angle (lower = better).
  double score = 0.0;
  /// Best score among candidates at least 10 degrees away from the winner
  /// (infinity when no such candidate was scanned). The gap to `score` is
  /// the decision margin.
  double runnerUpScore = 0.0;
  /// Confidence margin: runnerUpScore - score (>= 0; larger = the winning
  /// angle beat genuinely different candidates more clearly). 0 when only
  /// one distinct angle was scanned. Also observed into the
  /// "aoa.known.margin" / "aoa.unknown.margin" metric histograms.
  double scoreMargin = 0.0;
  /// Margin-derived confidence in [0, 1): margin / (margin + 0.2), halved
  /// when the estimator had to fall back to a degraded path. A caller that
  /// needs hard estimates should gate on this rather than trusting every
  /// return equally.
  double confidence = 0.0;
  /// True when the primary estimation path failed (e.g. no detectable first
  /// taps with a known source) and the estimate came from a fallback.
  bool degraded = false;
};

/// Relative-channel peak threshold for the unknown-source path.
inline constexpr double kAoaPeakRelativeThreshold = 0.45;
/// Spectral band used by the Eq. 11 residual (Hz).
inline constexpr double kAoaBandLoHz = 300.0;
inline constexpr double kAoaBandHiHz = 14000.0;

struct AoaEstimatorOptions {
  /// Aggregate the Eq. 11 residual over short frames instead of one
  /// whole-signal spectrum (helps tonal sources; ablation knob).
  bool frameAggregation = true;
};

/// HRTF-aware binaural AoA estimation (paper Section 4.5). Classical array
/// techniques fail on earbuds because the head diffracts and the pinna
/// scatters the arriving signal; instead UNIQ matches the observed binaural
/// structure against the (personal) far-field HRTF templates.
class AoaEstimator {
 public:
  using Options = AoaEstimatorOptions;

  /// `table` provides the per-angle templates; pass a personalized table
  /// (UNIQ output), a ground-truth table, or the global template to compare
  /// personalization levels.
  explicit AoaEstimator(const FarFieldTable& table, Options opts = {});

  /// Known-source estimation (paper Eq. 9): extract the two ear channels by
  /// deconvolution and minimize
  ///   T(theta) = lambda*|t0 - t(theta)| + (1-cL(theta)) + (1-cR(theta)).
  /// When no first tap is detectable in either ear (degraded capture), falls
  /// back to the unknown-source path instead of throwing; the estimate comes
  /// back with degraded = true and halved confidence.
  AoaEstimate estimateKnown(const std::vector<double>& leftRecording,
                            const std::vector<double>& rightRecording,
                            const std::vector<double>& source) const;

  /// Unknown-source estimation (paper Eq. 10/11): peaks of the relative
  /// channel between the ears propose candidate AoAs (a front/back pair per
  /// delay); the multiplicative-form residual
  ///   || L x HRTF_R(theta) - R x HRTF_L(theta) ||
  /// picks the true one. The residual compares band magnitudes
  /// (|L||H_R| against |R||H_L| over [kAoaBandLoHz, kAoaBandHiHz]). Each
  /// template's magnitudes come from one fixed-size transform, cached in the
  /// estimator and interpolated linearly onto the query's bins, so later
  /// queries against one estimator reuse them whatever their length.
  AoaEstimate estimateUnknown(const std::vector<double>& leftRecording,
                              const std::vector<double>& rightRecording) const;

  /// Template interaural first-tap delay t(theta) in seconds (left minus
  /// right), as stored in the table; exposed for tests.
  double templateDelaySec(double thetaDeg) const;

 private:
  /// Eq. 9 objective at table entry `degreeIndex`, given the measured
  /// channels already aligned to that entry's template taps and cut to the
  /// template lengths.
  double knownSourceObjective(std::size_t degreeIndex, double t0Sec,
                              const std::vector<double>& hLeft,
                              const std::vector<double>& hRight) const;
  std::vector<double> candidateAnglesForDelay(double deltaSec) const;

  /// Left/right template magnitudes |H_L|, |H_R| for one table angle: the
  /// whole half spectrum (magSize_ / 2 + 1 bins) of each ear's template at
  /// magSize_ points, whatever the query's FFT size.
  struct TemplateMagnitudes {
    std::vector<double> left;
    std::vector<double> right;
  };
  /// Magnitudes of table entries `degreeIndices`, in the same order.
  /// Entries not yet cached are computed (one rfft per ear of the unpadded
  /// template) and kept for the estimator's lifetime, so every estimator
  /// pays each template's transform once; queries of any recording length
  /// share them. An entry is never replaced once made, so scoring reads it
  /// after the lock is released. Thread-safe.
  std::vector<const TemplateMagnitudes*> templateMagnitudes(
      const std::vector<std::size_t>& degreeIndices) const;

  const FarFieldTable& table_;
  Options opts_;
  /// dsp::l2Norm of each template channel, per degree (Eq. 9 shape match).
  std::vector<double> normLeft_;
  std::vector<double> normRight_;
  /// Transform size of the cached template magnitudes: kTemplateFftSize
  /// (aoa.cpp), or the longest template's power of two above it.
  std::size_t magSize_;
  mutable std::mutex magMutex_;
  /// Per degree; null until a query first needs that angle.
  mutable std::vector<std::unique_ptr<const TemplateMagnitudes>> mag_;
};

}  // namespace uniq::core
