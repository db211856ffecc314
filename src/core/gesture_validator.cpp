#include "core/gesture_validator.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace uniq::core {

namespace {

/// Minimum acceptable median phone radius (m): closer and the model's
/// point-source assumptions and SNR degrade.
constexpr double kMinMedianRadiusM = 0.22;
/// Minimum acceptable single-stop radius (m).
constexpr double kMinStopRadiusM = 0.16;
/// Maximum acceptable RMS IMU-vs-acoustic disagreement (deg).
constexpr double kMaxRmsResidualDeg = 8.0;
/// Minimum fraction of stops the localizer must place.
constexpr double kMinLocalizedFraction = 0.7;

}  // namespace

GestureReport GestureValidator::validate(
    const SensorFusionResult& fusion) const {
  GestureReport report;
  std::vector<double> radii;
  std::size_t tooClose = 0;
  for (const auto& stop : fusion.stops) {
    if (!stop.localized) continue;
    radii.push_back(stop.radiusM);
    if (stop.radiusM < kMinStopRadiusM) ++tooClose;
  }

  const double localizedFraction =
      fusion.stops.empty()
          ? 0.0
          : static_cast<double>(fusion.localizedCount) /
                static_cast<double>(fusion.stops.size());
  if (localizedFraction < kMinLocalizedFraction) {
    std::ostringstream os;
    os << "only " << fusion.localizedCount << "/" << fusion.stops.size()
       << " stops could be localized — redo the sweep";
    report.issues.push_back(os.str());
  }

  if (!radii.empty()) {
    std::sort(radii.begin(), radii.end());
    const double median = radii[radii.size() / 2];
    if (median < kMinMedianRadiusM) {
      std::ostringstream os;
      os << "phone held too close to the head (median radius " << median
         << " m) — extend the arm further";
      report.issues.push_back(os.str());
    }
    if (tooClose > radii.size() / 4) {
      report.issues.push_back(
          "arm drooped toward the head on many stops — keep the radius "
          "steady");
    }
  }

  const double rmsResidual = std::sqrt(fusion.meanSquaredResidualDeg2);
  if (rmsResidual > kMaxRmsResidualDeg) {
    std::ostringstream os;
    os << "IMU and acoustic angles disagree (RMS " << rmsResidual
       << " deg) — face the phone screen toward the eyes and redo";
    report.issues.push_back(os.str());
  }

  report.ok = report.issues.empty();
  return report;
}

}  // namespace uniq::core
