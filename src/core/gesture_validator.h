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
};

}  // namespace uniq::core
