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
/// IMU-log checks (validateImuLog): minimum total angular span (deg) a
/// sweep must cover to be worth calibrating from.
constexpr double kMinSweepSpanDeg = 120.0;
/// Largest tolerated mid-arc backtrack (deg): the sweep should be monotonic
/// ear-to-ear; a reversal beyond this means the user swung the phone back.
constexpr double kMaxReversalDeg = 15.0;
/// Minimum number of IMU samples for a usable log.
constexpr std::size_t kMinImuSamples = 4;

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

GestureReport GestureValidator::validateImuLog(
    const std::vector<double>& timesSec,
    const std::vector<double>& anglesDeg) const {
  GestureReport report;
  if (timesSec.size() != anglesDeg.size()) {
    report.issues.push_back(
        "IMU log is internally inconsistent (timestamp/angle count "
        "mismatch)");
    report.ok = false;
    return report;
  }
  if (anglesDeg.empty()) {
    report.issues.push_back("IMU log is empty — no sweep was recorded");
    report.ok = false;
    return report;
  }
  if (anglesDeg.size() < kMinImuSamples) {
    std::ostringstream os;
    os << "IMU log has only " << anglesDeg.size()
       << " sample(s) — too short to describe a sweep";
    report.issues.push_back(os.str());
  }

  // Frozen or backwards clock: integration over such timestamps is
  // meaningless, so flag once and skip the kinematic checks that depend on
  // ordering.
  bool monotonic = true;
  for (std::size_t i = 1; i < timesSec.size(); ++i) {
    if (timesSec[i] <= timesSec[i - 1]) {
      std::ostringstream os;
      os << "IMU timestamps are not strictly increasing (sample " << i
         << ") — clock glitch or duplicated samples";
      report.issues.push_back(os.str());
      monotonic = false;
      break;
    }
  }

  if (anglesDeg.size() >= 2) {
    double lo = anglesDeg[0], hi = anglesDeg[0];
    for (double a : anglesDeg) {
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
    if (hi - lo < kMinSweepSpanDeg) {
      std::ostringstream os;
      os << "sweep covers only " << (hi - lo)
         << " deg — move the phone across the full ear-to-ear arc";
      report.issues.push_back(os.str());
    }

    if (monotonic) {
      // Mid-arc direction reversal: track the running extreme in the
      // dominant sweep direction and measure the deepest backtrack from it.
      const bool increasing = anglesDeg.back() >= anglesDeg.front();
      double extreme = anglesDeg[0];
      double worstBacktrack = 0.0;
      for (double a : anglesDeg) {
        if (increasing) {
          extreme = std::max(extreme, a);
          worstBacktrack = std::max(worstBacktrack, extreme - a);
        } else {
          extreme = std::min(extreme, a);
          worstBacktrack = std::max(worstBacktrack, a - extreme);
        }
      }
      if (worstBacktrack > kMaxReversalDeg) {
        std::ostringstream os;
        os << "sweep reversed direction mid-arc by " << worstBacktrack
           << " deg — keep the motion one-way and redo";
        report.issues.push_back(os.str());
      }
    }
  }

  report.ok = report.issues.empty();
  return report;
}

}  // namespace uniq::core
