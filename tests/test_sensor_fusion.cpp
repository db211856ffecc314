#include "core/sensor_fusion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/random.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "obs/metrics.h"

namespace uniq::core {
namespace {

/// Synthetic measurements straight from the forward model: delays computed
/// on the true head, IMU angles equal to truth plus optional noise.
std::vector<FusionMeasurement> makeMeasurements(
    const head::HeadParameters& truth, double imuNoiseDeg, Pcg32& rng,
    std::size_t count = 30) {
  const geo::HeadBoundary head(truth.a, truth.b, truth.c, 256);
  std::vector<FusionMeasurement> out;
  for (std::size_t i = 0; i < count; ++i) {
    const double theta =
        5.0 + 170.0 * static_cast<double>(i) / static_cast<double>(count - 1);
    const double r = 0.32 + 0.05 * std::sin(0.3 * static_cast<double>(i));
    const geo::Vec2 pos = geo::pointFromPolarDeg(theta, r);
    FusionMeasurement m;
    m.delayLeftSec =
        geo::nearFieldPath(head, pos, geo::Ear::kLeft).length / kSpeedOfSound;
    m.delayRightSec =
        geo::nearFieldPath(head, pos, geo::Ear::kRight).length /
        kSpeedOfSound;
    m.imuAngleDeg = theta + rng.gaussian(0.0, imuNoiseDeg);
    m.sourceIndex = i;
    out.push_back(m);
  }
  return out;
}

TEST(SensorFusion, NoiselessMeasurementsNearZeroObjectiveAtTruth) {
  const head::HeadParameters truth{0.070, 0.105, 0.090};
  Pcg32 rng(1);
  const auto measurements = makeMeasurements(truth, 0.0, rng);
  SensorFusionOptions opts;
  opts.priorWeight = 0.0;
  const SensorFusion fusion(opts);
  EXPECT_LT(fusion.objective(truth, measurements), 1.0);
}

TEST(SensorFusion, ObjectiveWorseForWrongHead) {
  const head::HeadParameters truth{0.070, 0.105, 0.090};
  Pcg32 rng(2);
  const auto measurements = makeMeasurements(truth, 0.0, rng);
  SensorFusionOptions opts;
  opts.priorWeight = 0.0;
  const SensorFusion fusion(opts);
  const double atTruth = fusion.objective(truth, measurements);
  const head::HeadParameters wrong{0.085, 0.090, 0.105};
  EXPECT_GT(fusion.objective(wrong, measurements), atTruth + 1.0);
}

TEST(SensorFusion, SolveRecoversEarWidthNoiseless) {
  const head::HeadParameters truth{0.068, 0.108, 0.092};
  Pcg32 rng(3);
  const auto measurements = makeMeasurements(truth, 0.0, rng);
  SensorFusionOptions opts;
  opts.priorWeight = 0.0;
  const SensorFusion fusion(opts);
  const auto result = fusion.solve(measurements);
  EXPECT_TRUE(result.headParams.isPlausible());
  // The ear-to-ear axis is the best-identified parameter.
  EXPECT_NEAR(result.headParams.a, truth.a, 0.006);
  EXPECT_EQ(result.localizedCount, measurements.size());
  EXPECT_LT(result.meanSquaredResidualDeg2, 4.0);
}

TEST(SensorFusion, FusedAnglesAverageImuAndAcoustic) {
  const head::HeadParameters truth{0.072, 0.100, 0.088};
  Pcg32 rng(4);
  const auto measurements = makeMeasurements(truth, 3.0, rng);
  const SensorFusion fusion;
  const auto result = fusion.solve(measurements);
  for (std::size_t i = 0; i < result.stops.size(); ++i) {
    if (!result.stops[i].localized) continue;
    EXPECT_NEAR(result.stops[i].angleDeg,
                0.5 * (result.stops[i].imuAngleDeg +
                       result.stops[i].acousticAngleDeg),
                1e-9);
  }
}

TEST(SensorFusion, FusionBeatsImuAloneUnderImuNoise) {
  const head::HeadParameters truth{0.071, 0.103, 0.090};
  Pcg32 rng(5);
  const auto measurements = makeMeasurements(truth, 6.0, rng, 32);
  const SensorFusion fusion;
  const auto result = fusion.solve(measurements);
  // Compare per-stop angular errors: fused vs IMU-only against the truth
  // grid used by makeMeasurements.
  double fusedErr = 0.0, imuErr = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < result.stops.size(); ++i) {
    if (!result.stops[i].localized) continue;
    const double truthAngle =
        5.0 + 170.0 * static_cast<double>(i) /
                  static_cast<double>(measurements.size() - 1);
    fusedErr += std::fabs(result.stops[i].angleDeg - truthAngle);
    imuErr += std::fabs(result.stops[i].imuAngleDeg - truthAngle);
    ++n;
  }
  ASSERT_GT(n, measurements.size() / 2);
  EXPECT_LT(fusedErr, imuErr);
}

TEST(SensorFusion, PriorPullsTowardAverageWhenDataWeak) {
  const head::HeadParameters truth{0.0665, 0.116, 0.078};  // extreme head
  Pcg32 rng(6);
  // Heavy IMU noise: data barely constrains (b, c).
  const auto measurements = makeMeasurements(truth, 10.0, rng, 12);
  SensorFusionOptions weak;
  weak.priorWeight = 0.0;
  SensorFusionOptions strong;
  strong.priorWeight = 1.0e6;
  const auto weakResult = SensorFusion(weak).solve(measurements);
  const auto strongResult = SensorFusion(strong).solve(measurements);
  const auto avg = head::HeadParameters::average();
  EXPECT_LT(head::maxAxisError(strongResult.headParams, avg),
            head::maxAxisError(weakResult.headParams, avg) + 1e-9);
}

TEST(SensorFusion, RejectsTooFewMeasurements) {
  const SensorFusion fusion;
  std::vector<FusionMeasurement> few(3);
  EXPECT_THROW(fusion.solve(few), InvalidArgument);
}

TEST(SensorFusion, SolveRobustUnusableInsteadOfThrowingOnTooFew) {
  const SensorFusion fusion;
  std::vector<FusionMeasurement> few(4);
  SensorFusionResult result;
  EXPECT_NO_THROW(result = fusion.solveRobust(few));
  EXPECT_FALSE(result.usable);
  EXPECT_TRUE(result.rejectedSourceIndices.empty());
}

TEST(SensorFusion, SolveRobustRejectsPlantedOutlier) {
  const head::HeadParameters truth{0.072, 0.104, 0.089};
  Pcg32 rng(7);
  auto measurements = makeMeasurements(truth, 1.0, rng, 24);
  // One stop's gyro integration went wild: IMU disagrees with the acoustic
  // angle by ~55 deg, far beyond both the MAD gate and the 10-deg floor.
  measurements[9].imuAngleDeg += 55.0;
  const SensorFusion fusion;
  const auto result = fusion.solveRobust(measurements);
  EXPECT_TRUE(result.usable);
  ASSERT_EQ(result.rejectedSourceIndices.size(), 1u);
  EXPECT_EQ(result.rejectedSourceIndices[0], 9u);
  EXPECT_GE(result.rejectRounds, 1u);
  // The rejected stop stays visible downstream, just unlocalized.
  ASSERT_EQ(result.stops.size(), measurements.size());
  EXPECT_FALSE(result.stops[9].localized);
  EXPECT_EQ(result.stops[9].sourceIndex, 9u);
  // With the outlier trimmed the head estimate stays sane.
  EXPECT_TRUE(result.headParams.isPlausible());
  EXPECT_NEAR(result.headParams.a, truth.a, 0.008);
}

TEST(SensorFusion, RejectMarginIsTheLastRoundsClosestCall) {
  const head::HeadParameters truth{0.072, 0.104, 0.089};
  Pcg32 rng(7);
  auto measurements = makeMeasurements(truth, 1.0, rng, 24);
  measurements[9].imuAngleDeg += 55.0;
  const SensorFusion fusion;
  const auto result = fusion.solveRobust(measurements);
  // Round 0 drops stop 9 and round 1 judges the re-solve's stops, keeps
  // them all and ends the loop; no widened re-solve replaces those stops.
  ASSERT_EQ(result.rejectedSourceIndices.size(), 1u);
  ASSERT_EQ(result.rejectRounds, 1u);
  ASSERT_FALSE(result.widened);

  // Round 1's gate by hand: threshold = max(3.5 * 1.4826 * MAD, 10 deg)
  // over the localized stops' |IMU - acoustic| residuals.
  std::vector<double> residuals;
  for (const auto& stop : result.stops)
    if (stop.localized)
      residuals.push_back(std::fabs(stop.imuAngleDeg - stop.acousticAngleDeg));
  ASSERT_EQ(residuals.size(), result.localizedCount);
  const auto medianOf = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double med = medianOf(residuals);
  std::vector<double> deviations;
  for (const double r : residuals) deviations.push_back(std::fabs(r - med));
  const double threshold =
      std::max(kRejectMadMultiplier * 1.4826 * medianOf(deviations),
               kRejectMinResidualDeg);
  double margin = std::numeric_limits<double>::infinity();
  for (const double r : residuals)
    margin = std::min(margin, std::fabs(r - threshold));
  EXPECT_DOUBLE_EQ(result.rejectMarginDeg, margin);
  EXPECT_GT(result.rejectMarginDeg, 0.0);
  EXPECT_DOUBLE_EQ(obs::registry().gauge("dsf.reject.margin_deg").value(),
                   margin);
}

TEST(SensorFusion, RejectMarginIsNanWithoutARejectRound) {
  // Six stops leave nothing to reject, so no round runs.
  const head::HeadParameters truth{0.072, 0.104, 0.089};
  Pcg32 rng(9);
  const auto measurements = makeMeasurements(truth, 0.5, rng, 6);
  const auto result = SensorFusion().solveRobust(measurements);
  ASSERT_TRUE(result.usable);
  EXPECT_TRUE(std::isnan(result.rejectMarginDeg));
}

TEST(SensorFusion, SolveRobustKeepsEveryCleanStop) {
  const head::HeadParameters truth{0.070, 0.102, 0.091};
  Pcg32 rng(8);
  const auto measurements = makeMeasurements(truth, 0.5, rng, 20);
  const SensorFusion fusion;
  const auto result = fusion.solveRobust(measurements);
  EXPECT_TRUE(result.usable);
  EXPECT_TRUE(result.rejectedSourceIndices.empty());
  EXPECT_EQ(result.rejectRounds, 0u);
  EXPECT_EQ(result.localizedCount, measurements.size());
  // Stops come back sorted by their originating capture index.
  for (std::size_t i = 0; i < result.stops.size(); ++i)
    EXPECT_EQ(result.stops[i].sourceIndex, i);
}

}  // namespace
}  // namespace uniq::core
