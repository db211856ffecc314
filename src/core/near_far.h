#pragma once

#include <vector>

#include "core/near_field_hrtf.h"
#include "head/hrtf_database.h"

namespace uniq::core {

/// Far-field HRTF table on a 1-degree grid over [0, 180].
struct FarFieldTable {
  std::vector<head::Hrir> byDegree;  ///< 181 entries
  /// First-tap positions per degree and ear (samples), relative model
  /// delays imposed by the converter.
  std::vector<double> tapLeftSamples;
  std::vector<double> tapRightSamples;
  double sampleRate = 0.0;
  head::HeadParameters headParams;

  const head::Hrir& at(double thetaDeg) const;
};

/// Anchor sample where the earlier ear's first tap sits in a far-field
/// table entry.
inline constexpr double kFarFieldAlignSample = 32.0;

struct NearFarConverterOptions {
  /// Sharpness of the ray-proximity weighting across the contribution arc:
  /// sigma = band / raySigmaDivisor. Larger = more selective around the
  /// ray that reaches the ear; ~1 reproduces the paper's plain arc average
  /// (ablation knob).
  double raySigmaDivisor = 5.0;
};

/// Synthesizes the far-field HRTF from the near-field table (paper
/// Section 4.3, Figure 12): for each target angle, parallel rays intersect
/// the measurement circle; near-field HRTFs measured between the crown
/// point C and the left-side grazing ray B average into the left-ear
/// far-field response, those between C and D into the right-ear response.
/// Delays and interaural levels are then re-imposed from the plane-wave
/// diffraction model with the personalized head parameters.
class NearFarConverter {
 public:
  using Options = NearFarConverterOptions;

  explicit NearFarConverter(Options opts = {});

  FarFieldTable convert(const NearFieldTable& nearTable) const;

 private:
  Options opts_;
};

/// Build a far-field table directly from a ground-truth database (used for
/// the paper's upper-bound comparisons and for the "global HRTF" baseline),
/// laid out as NearFarConverter lays out its tables.
FarFieldTable farTableFromDatabase(const head::HrtfDatabase& db);

/// Build a near-field table directly from a ground-truth database at radius
/// `radiusM`. Besides upper-bound comparisons, this is the pipeline's
/// population-average fallback: when a capture is too corrupted to
/// personalize, the listener still gets a working (generic) table instead
/// of an exception.
NearFieldTable nearTableFromDatabase(const head::HrtfDatabase& db,
                                     double radiusM);

}  // namespace uniq::core
