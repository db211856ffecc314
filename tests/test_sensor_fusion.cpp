#include "core/sensor_fusion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "sim/fault_injector.h"
#include "sim/trajectory.h"

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

/// The quality-gated fusion measurements the pipeline solves for a capture
/// of the `uniq calibrate --seed 42` subject, with `fault` injected at
/// severity 0.5 unless it is null.
std::vector<FusionMeasurement> seed42Measurements(const sim::FaultKind* fault) {
  const auto subject = head::makePopulation(1, 42)[0];
  auto capture = sim::MeasurementSession().run(subject, sim::defaultGesture());
  if (fault) {
    sim::FaultInjector injector;
    injector.add(*fault, 0.5);
    capture = injector.apply(capture);
  }
  const CalibrationPipeline pipeline;
  const auto channels = pipeline.extractChannels(capture);
  auto out = CalibrationPipeline::toFusionMeasurements(capture, channels);
  std::erase_if(out, [&](const FusionMeasurement& m) {
    return channels[m.sourceIndex].quality.gated();
  });
  return out;
}

TEST(SensorFusion, RememberedFixesMatchFreshOnes) {
  // A second evaluation at one head reads the fixes the first one found;
  // a stop with the same delays but another IMU angle is a new fix (it
  // may resolve the front/back ambiguity the other way).
  const auto measurements = seed42Measurements(nullptr);
  auto turned = measurements;
  for (auto& m : turned) m.imuAngleDeg = 180.0 - m.imuAngleDeg;
  const auto head = head::HeadParameters::average();
  const SensorFusion warm;
  const auto first = warm.residuals(head, measurements);
  EXPECT_EQ(warm.residuals(head, measurements), first);
  EXPECT_EQ(warm.residuals(head, turned), SensorFusion().residuals(head, turned));
  EXPECT_NE(warm.residuals(head, turned), first);
}

TEST(SensorFusion, ConcurrentEvaluationsShareTheCachesSafely) {
  // Four threads evaluate one instance at the same two heads: they race
  // to build each geometry, its perturbed heads and its remembered fixes,
  // and every result must equal a fresh instance's.
  const auto measurements = seed42Measurements(nullptr);
  const head::HeadParameters heads[] = {head::HeadParameters::average(),
                                        {0.070, 0.100, 0.085}};
  std::vector<double> want[2];
  optim::Matrix wantJacobian[2];
  for (int h = 0; h < 2; ++h)
    want[h] = SensorFusion().residuals(heads[h], measurements,
                                       &wantJacobian[h]);
  const SensorFusion shared;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < 6; ++k) {
        const int h = (t + k) % 2;
        optim::Matrix jacobian;
        const auto r = shared.residuals(heads[h], measurements, &jacobian);
        bool same = r == want[h];
        for (std::size_t i = 0; i < jacobian.rows(); ++i)
          for (std::size_t j = 0; j < 3; ++j)
            same = same && jacobian.at(i, j) == wantJacobian[h].at(i, j);
        if (!same) ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(SensorFusion, ImplicitJacobianMatchesCentralDifferences) {
  // Each localized stop's Jacobian row against central differences of
  // residuals() at h = 1e-4 in the squashed coordinates, at four heads, on
  // the seed-42 capture and on a swapped-ears copy (whose swapped stops
  // mostly land on the closest-approach fallback or nowhere).
  constexpr double kH = 1e-4;
  constexpr sim::FaultKind kSwapped = sim::FaultKind::kSwappedEars;
  const head::HeadParameters heads[] = {head::HeadParameters::average(),
                                        {0.070, 0.100, 0.085},
                                        {0.078, 0.110, 0.096},
                                        {0.073, 0.095, 0.101}};
  const SensorFusion fusion;
  std::size_t compared = 0, zeroRows = 0;
  for (const sim::FaultKind* fault : {(const sim::FaultKind*)nullptr, &kSwapped}) {
    const auto measurements = seed42Measurements(fault);
    const std::size_t n = measurements.size();
    for (const auto& head : heads) {
      const auto x0 = squashedFromHead(head);
      const auto at = headFromSquashed(x0);
      optim::Matrix jacobian;
      const auto r0 = fusion.residuals(at, measurements, &jacobian);
      ASSERT_EQ(jacobian.rows(), n + 3);
      ASSERT_EQ(jacobian.cols(), 3u);
      // Each stop's fix at the head and at x0 -/+ h e_j, located the way
      // residuals() locates it.
      const auto fixesAt = [&](const head::HeadParameters& e) {
        const geo::HeadBoundary boundary(e.a, e.b, e.c,
                                         kFusionBoundaryResolution);
        const Localizer localizer(boundary);
        std::vector<std::optional<PolarFix>> fixes;
        for (const auto& m : measurements)
          fixes.push_back(localizer.locate(m.delayLeftSec, m.delayRightSec,
                                           m.imuAngleDeg));
        return fixes;
      };
      const auto fixes = fixesAt(at);
      const geo::HeadBoundary boundary(at.a, at.b, at.c,
                                       kFusionBoundaryResolution);
      const Localizer localizer(boundary);
      const auto perturbed = perturbedHeads(boundary);
      for (std::size_t j = 0; j < 3; ++j) {
        auto xm = x0, xp = x0;
        xm[j] -= kH;
        xp[j] += kH;
        const auto rm = fusion.residuals(headFromSquashed(xm), measurements);
        const auto rp = fusion.residuals(headFromSquashed(xp), measurements);
        const auto fm = fixesAt(headFromSquashed(xm));
        const auto fp = fixesAt(headFromSquashed(xp));
        for (std::size_t i = 0; i < n; ++i) {
          const auto& fix = fixes[i];
          if (!fix || fix->approximate ||
              !localizer.angleGradient(*fix, perturbed)) {
            EXPECT_EQ(jacobian.at(i, j), 0.0) << "stop " << i;
            ++zeroRows;
            continue;
          }
          // The same branch on both sides: localized exactly there too,
          // and no jump to another root (a branch moves ~1e-3 degrees).
          const bool sameBranch =
              fm[i] && fp[i] && !fm[i]->approximate && !fp[i]->approximate &&
              std::fabs(fm[i]->angleDeg - fix->angleDeg) < 0.05 &&
              std::fabs(fp[i]->angleDeg - fix->angleDeg) < 0.05;
          if (!sameBranch) continue;
          const double central = (rp[i] - rm[i]) / (2.0 * kH);
          EXPECT_NEAR(jacobian.at(i, j), central,
                      1e-4 + 0.005 * std::fabs(central))
              << "stop " << i << ", axis " << j << ", residual " << r0[i];
          ++compared;
        }
        // The prior rows are analytic and exact.
        const double priorCentral = (rp[n + j] - rm[n + j]) / (2.0 * kH);
        EXPECT_NEAR(jacobian.at(n + j, j), priorCentral,
                    1e-6 * std::fabs(priorCentral));
      }
    }
  }
  EXPECT_GT(compared, 200u);
  EXPECT_GT(zeroRows, 0u);
}

}  // namespace
}  // namespace uniq::core
