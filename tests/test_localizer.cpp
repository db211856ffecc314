#include "core/localizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/random.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "head/head_parameters.h"
#include "head/subject.h"
#include "obs/metrics.h"

namespace uniq::core {
namespace {

struct AngleRadius {
  double angleDeg;
  double radiusM;
};

class LocalizerRoundTrip : public ::testing::TestWithParam<AngleRadius> {
 protected:
  geo::HeadBoundary head_{0.073, 0.102, 0.088, 256};
};

TEST_P(LocalizerRoundTrip, RecoversForwardModelPosition) {
  const auto p = GetParam();
  const geo::Vec2 pos = geo::pointFromPolarDeg(p.angleDeg, p.radiusM);
  const double tL =
      geo::nearFieldPath(head_, pos, geo::Ear::kLeft).length / kSpeedOfSound;
  const double tR =
      geo::nearFieldPath(head_, pos, geo::Ear::kRight).length / kSpeedOfSound;
  const Localizer localizer(head_);
  const auto fix = localizer.locate(tL, tR, p.angleDeg + 3.0);
  ASSERT_TRUE(fix.has_value());
  EXPECT_NEAR(fix->angleDeg, p.angleDeg, 1.0);
  EXPECT_NEAR(fix->radiusM, p.radiusM, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LocalizerRoundTrip,
    ::testing::Values(AngleRadius{10, 0.3}, AngleRadius{30, 0.25},
                      AngleRadius{45, 0.4}, AngleRadius{60, 0.35},
                      AngleRadius{75, 0.3}, AngleRadius{105, 0.3},
                      AngleRadius{120, 0.45}, AngleRadius{150, 0.35},
                      AngleRadius{170, 0.3}, AngleRadius{45, 0.6}));

class LocalizerTest : public ::testing::Test {
 protected:
  geo::HeadBoundary head_{0.073, 0.102, 0.088, 256};
  Localizer localizer_{head_};

  std::pair<double, double> delaysAt(double angleDeg, double radiusM) const {
    const geo::Vec2 pos = geo::pointFromPolarDeg(angleDeg, radiusM);
    return {geo::nearFieldPath(head_, pos, geo::Ear::kLeft).length /
                kSpeedOfSound,
            geo::nearFieldPath(head_, pos, geo::Ear::kRight).length /
                kSpeedOfSound};
  }
};

TEST_F(LocalizerTest, FrontBackPairFound) {
  // A front position's delays usually admit a back-side solution as well.
  const auto [tL, tR] = delaysAt(40.0, 0.35);
  const auto fixes = localizer_.locateAll(tL, tR);
  ASSERT_GE(fixes.size(), 1u);
  bool hasFront = false;
  for (const auto& f : fixes) {
    if (std::fabs(f.angleDeg - 40.0) < 2.0) hasFront = true;
  }
  EXPECT_TRUE(hasFront);
  if (fixes.size() >= 2) {
    // The ambiguous twin sits on the other side of the ear axis.
    bool hasBack = false;
    for (const auto& f : fixes)
      if (f.angleDeg > 90.0) hasBack = true;
    EXPECT_TRUE(hasBack);
  }
}

TEST_F(LocalizerTest, ImuDisambiguatesFrontBack) {
  const auto [tL, tR] = delaysAt(40.0, 0.35);
  const auto fixes = localizer_.locateAll(tL, tR);
  if (fixes.size() < 2) GTEST_SKIP() << "no ambiguity for this geometry";
  const auto front = localizer_.locate(tL, tR, 35.0);
  const auto back = localizer_.locate(tL, tR, 150.0);
  ASSERT_TRUE(front && back);
  EXPECT_LT(front->angleDeg, 90.0);
  EXPECT_GT(back->angleDeg, 90.0);
}

TEST_F(LocalizerTest, ApproximateFallbackOnSlightMismatch) {
  const auto [tL, tR] = delaysAt(90.0, 0.35);
  // Inflate the interaural difference slightly beyond the model's maximum.
  const double tRBad = tR + 8.0e-6;  // +2.7 mm
  const auto fix = localizer_.locate(tL, tRBad, 90.0);
  ASSERT_TRUE(fix.has_value());
  EXPECT_NEAR(fix->angleDeg, 90.0, 8.0);
}

TEST_F(LocalizerTest, ClosestApproachFixIsMarkedAndCounted) {
  const auto [tL, tR] = delaysAt(90.0, 0.35);
  auto& scans = obs::registry().counter("localizer.fallback.scans");
  auto& unlocalized = obs::registry().counter("localizer.fallback.unlocalized");
  const auto scansBefore = scans.value();
  const auto unlocalizedBefore = unlocalized.value();
  const auto exact = localizer_.locate(tL, tR, 90.0);
  ASSERT_TRUE(exact.has_value());
  EXPECT_FALSE(exact->approximate);
  EXPECT_EQ(scans.value(), scansBefore);
  EXPECT_TRUE(localizer_.angleGradient(*exact, perturbedHeads(head_)));
  // +1.4 cm on the right path: the curves no longer meet, but come within
  // the fallback's 2 cm.
  const auto fix = localizer_.locate(tL, tR + 40e-6, 90.0);
  ASSERT_TRUE(fix.has_value());
  EXPECT_TRUE(fix->approximate);
  EXPECT_NEAR(fix->angleDeg, 90.0, 8.0);
  EXPECT_EQ(scans.value(), scansBefore + 1);
  EXPECT_EQ(unlocalized.value(), unlocalizedBefore);
  // Its angle is a grid argmin, with no implicit gradient.
  EXPECT_FALSE(localizer_.angleGradient(*fix, perturbedHeads(head_)));
}

TEST_F(LocalizerTest, GrossMismatchReturnsNothing) {
  const auto [tL, tR] = delaysAt(60.0, 0.35);
  auto& scans = obs::registry().counter("localizer.fallback.scans");
  auto& unlocalized = obs::registry().counter("localizer.fallback.unlocalized");
  const auto scansBefore = scans.value();
  const auto unlocalizedBefore = unlocalized.value();
  const auto fix = localizer_.locate(tL, tR + 1.0e-3, 60.0);  // +34 cm
  EXPECT_FALSE(fix.has_value());
  EXPECT_EQ(scans.value(), scansBefore + 1);
  EXPECT_EQ(unlocalized.value(), unlocalizedBefore + 1);
}

TEST_F(LocalizerTest, RejectsNonPositiveDelays) {
  EXPECT_THROW(localizer_.locateAll(-1e-3, 1e-3), InvalidArgument);
  EXPECT_THROW(localizer_.locateAll(1e-3, 0.0), InvalidArgument);
  EXPECT_THROW(localizer_.locate(-1e-3, 1e-3, 60.0), InvalidArgument);
  EXPECT_THROW(localizer_.locate(1e-3, 0.0, 60.0), InvalidArgument);
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The full-scan reference for locate: every locateAll fix, ranked by
/// distance to the IMU angle, the lower angle first on a tie.
std::optional<PolarFix> nearestOfAll(const std::vector<PolarFix>& fixes,
                                     double imuAngleDeg) {
  std::optional<PolarFix> best;
  for (const auto& fix : fixes)
    if (!best || std::fabs(fix.angleDeg - imuAngleDeg) <
                     std::fabs(best->angleDeg - imuAngleDeg))
      best = fix;
  return best;
}

TEST(LocalizerSearch, MatchesNearestFullScanFixBitForBit) {
  // Seeded heads at both boundary resolutions plus one perturbed (real-
  // head-like) outline. Delays come from the localizer's own head or, for
  // model mismatch, from a perturbed twin, with and without timing noise;
  // IMU angles stray up to 60 degrees and past both ends of the scan.
  Pcg32 rng(1405);
  std::vector<geo::HeadBoundary> heads;
  for (int i = 0; i < 6; ++i) {
    const auto p = head::HeadParameters::sample(rng);
    heads.emplace_back(p.a, p.b, p.c, i % 2 == 0 ? 128 : 256);
  }
  const auto perturbedParams = head::HeadParameters::sample(rng);
  heads.emplace_back(perturbedParams.a, perturbedParams.b, perturbedParams.c,
                     head::sampleShapeHarmonics(rng), 256);

  int nearest = 0, closestApproach = 0, none = 0;
  for (const auto& head : heads) {
    const geo::HeadBoundary twin(head.a(), head.b(), head.c(),
                                 head::sampleShapeHarmonics(rng), head.size());
    const Localizer localizer(head);
    for (int i = 0; i < 120; ++i) {
      const double angleDeg = rng.uniform(-10.0, 190.0);
      const geo::Vec2 pos =
          geo::pointFromPolarDeg(angleDeg, rng.uniform(0.14, 1.0));
      const geo::HeadBoundary& source = i % 2 == 0 ? head : twin;
      double tL =
          geo::nearFieldPath(source, pos, geo::Ear::kLeft).length /
          kSpeedOfSound;
      double tR =
          geo::nearFieldPath(source, pos, geo::Ear::kRight).length /
          kSpeedOfSound;
      const double noiseSec = i % 3 == 0 ? 0.0 : i % 3 == 1 ? 2e-5 : 4e-4;
      tL = std::max(1e-5, tL + rng.uniform(-noiseSec, noiseSec));
      tR = std::max(1e-5, tR + rng.uniform(-noiseSec, noiseSec));
      double imuDeg = angleDeg + rng.uniform(-60.0, 60.0);
      if (i % 10 == 3) imuDeg = rng.uniform(-80.0, -25.5);
      if (i % 10 == 7) imuDeg = rng.uniform(205.5, 260.0);

      const auto fix = localizer.locate(tL, tR, imuDeg);
      const auto fixes = localizer.locateAll(tL, tR);
      if (!fixes.empty()) {
        ++nearest;
        const auto want = nearestOfAll(fixes, imuDeg);
        ASSERT_TRUE(fix.has_value());
        EXPECT_TRUE(sameBits(fix->angleDeg, want->angleDeg) &&
                    sameBits(fix->radiusM, want->radiusM))
            << "imu " << imuDeg << ": got (" << fix->angleDeg << ", "
            << fix->radiusM << "), full scan (" << want->angleDeg << ", "
            << want->radiusM << ")";
      } else if (fix) {
        ++closestApproach;
        EXPECT_GE(fix->angleDeg, -25.0);
        EXPECT_LE(fix->angleDeg, 205.0);
      } else {
        ++none;
      }
    }
  }
  // Every branch of locate was exercised.
  EXPECT_GT(nearest, 0);
  EXPECT_GT(closestApproach, 0);
  EXPECT_GT(none, 0);
}

TEST(LocalizerRefine, AngleMovesOnEveryMicrometreOfHeadWidth) {
  // True head (74, 101, 92) mm, stops at 30, 60 and 120 degrees 0.35 m
  // out; the candidate's a steps by 1 um from 74.5 mm, well below the
  // solver's ~75 um Jacobian step. Each stop's angle must move on every
  // step: a flat run reads as a zero gradient.
  const geo::HeadBoundary truth(0.074, 0.101, 0.092, 128);
  std::vector<std::pair<double, double>> delays;
  const double stopDeg[] = {30.0, 60.0, 120.0};
  for (const double angleDeg : stopDeg) {
    const geo::Vec2 pos = geo::pointFromPolarDeg(angleDeg, 0.35);
    delays.emplace_back(
        geo::nearFieldPath(truth, pos, geo::Ear::kLeft).length / kSpeedOfSound,
        geo::nearFieldPath(truth, pos, geo::Ear::kRight).length /
            kSpeedOfSound);
  }
  std::vector<double> previous(delays.size());
  int flat = 0;
  constexpr int kSteps = 200;
  for (int k = 0; k <= kSteps; ++k) {
    const geo::HeadBoundary candidate(0.0745 + 1e-6 * k, 0.101, 0.092, 128);
    const Localizer localizer(candidate);
    for (std::size_t i = 0; i < delays.size(); ++i) {
      const auto fix =
          localizer.locate(delays[i].first, delays[i].second, stopDeg[i]);
      ASSERT_TRUE(fix.has_value()) << "step " << k << ", stop " << i;
      if (k > 0 && sameBits(fix->angleDeg, previous[i])) ++flat;
      previous[i] = fix->angleDeg;
    }
  }
  EXPECT_EQ(flat, 0) << "of " << kSteps * delays.size() << " steps";
}

TEST(LocalizerRefine, FixesSitOnTheRightEarCurveAtTheTrueAngle) {
  // Noiseless delays from the localizer's own head: every fix lies on the
  // right-ear iso-delay curve, and the one nearest the true angle is it.
  // 80, 110, 140 and 170 degrees are scan-grid angles, so the root sits on
  // a bracket edge, where the residual's sign is down to rounding.
  const geo::HeadBoundary head(0.073, 0.102, 0.088, 256);
  const Localizer localizer(head);
  for (const double angleDeg : {10.0, 35.0, 60.0, 80.0, 110.0, 140.0, 170.0}) {
    for (const double radiusM : {0.25, 0.4, 0.8}) {
      const geo::Vec2 pos = geo::pointFromPolarDeg(angleDeg, radiusM);
      const double tL =
          geo::nearFieldPath(head, pos, geo::Ear::kLeft).length / kSpeedOfSound;
      const double tR = geo::nearFieldPath(head, pos, geo::Ear::kRight).length /
                        kSpeedOfSound;
      const auto fixes = localizer.locateAll(tL, tR);
      ASSERT_FALSE(fixes.empty()) << angleDeg << " deg, " << radiusM << " m";
      for (const auto& fix : fixes) {
        const geo::Vec2 at = geo::pointFromPolarDeg(fix.angleDeg, fix.radiusM);
        EXPECT_LT(std::fabs(geo::nearFieldPath(head, at, geo::Ear::kRight)
                                .length -
                            tR * kSpeedOfSound),
                  1e-9)
            << angleDeg << " deg, " << radiusM << " m: fix at "
            << fix.angleDeg << " deg";
      }
      const auto fix = localizer.locate(tL, tR, angleDeg);
      ASSERT_TRUE(fix.has_value());
      EXPECT_NEAR(fix->angleDeg, angleDeg, 1e-5) << radiusM << " m";
      const auto want = nearestOfAll(fixes, angleDeg);
      EXPECT_TRUE(sameBits(fix->angleDeg, want->angleDeg) &&
                  sameBits(fix->radiusM, want->radiusM))
          << angleDeg << " deg, " << radiusM << " m";
    }
  }
}

TEST_F(LocalizerTest, RejectsBadOptions) {
  // The smallest searched radius must clear the head: a head whose c axis
  // reaches past it puts part of the search range inside the head.
  const geo::HeadBoundary bigHead(0.075, 0.1, kLocalizerMinRadiusM + 0.01,
                                  128);
  EXPECT_THROW(Localizer{bigHead}, InvalidArgument);
}

}  // namespace
}  // namespace uniq::core
