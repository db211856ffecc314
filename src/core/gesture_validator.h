#pragma once

#include <string>
#include <vector>

#include "core/sensor_fusion.h"

namespace uniq::core {

/// Outcome of the automatic gesture sanity check (paper Section 4.6,
/// "Automatically correcting user gestures"): UNIQ asks the user to redo
/// the sweep when the estimated phone distance is too small or the fusion
/// residual too large.
struct GestureReport {
  bool ok = true;
  std::vector<std::string> issues;
};

/// Validates a fusion result against the gesture-quality rules.
class GestureValidator {
 public:
  GestureReport validate(const SensorFusionResult& fusion) const;

  /// Validates the raw gyro-integrated log BEFORE any acoustic processing,
  /// so an obviously broken sweep (empty log, frozen clock, mid-arc
  /// reversal) can be caught and redone without paying for a full pipeline
  /// run. `timesSec` and `anglesDeg` are parallel arrays of integration
  /// timestamps and unwrapped sweep angles. Never throws: a defective log
  /// comes back as ok = false with one issue per defect.
  GestureReport validateImuLog(const std::vector<double>& timesSec,
                               const std::vector<double>& anglesDeg) const;
};

}  // namespace uniq::core
