#include "core/gesture_validator.h"

#include <gtest/gtest.h>

namespace uniq::core {
namespace {

SensorFusionResult goodFusion() {
  SensorFusionResult r;
  r.headParams = head::HeadParameters::average();
  r.meanSquaredResidualDeg2 = 9.0;  // RMS 3 deg
  for (int i = 0; i < 30; ++i) {
    FusedStop s;
    s.localized = true;
    s.angleDeg = 6.0 * i;
    s.radiusM = 0.34;
    r.stops.push_back(s);
  }
  r.localizedCount = 30;
  return r;
}

TEST(GestureValidator, AcceptsGoodSweep) {
  const GestureValidator validator;
  const auto report = validator.validate(goodFusion());
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.issues.empty());
}

TEST(GestureValidator, FlagsPhoneTooClose) {
  auto fusion = goodFusion();
  for (auto& s : fusion.stops) s.radiusM = 0.18;
  const GestureValidator validator;
  const auto report = validator.validate(fusion);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.issues.empty());
  EXPECT_NE(report.issues[0].find("too close"), std::string::npos);
}

TEST(GestureValidator, FlagsArmDroopOnManyStops) {
  auto fusion = goodFusion();
  // A third of the stops collapse toward the head.
  for (std::size_t i = 0; i < fusion.stops.size(); i += 3)
    fusion.stops[i].radiusM = 0.14;
  const GestureValidator validator;
  const auto report = validator.validate(fusion);
  EXPECT_FALSE(report.ok);
}

TEST(GestureValidator, FlagsLargeResidual) {
  auto fusion = goodFusion();
  fusion.meanSquaredResidualDeg2 = 200.0;  // RMS ~14 deg
  const GestureValidator validator;
  const auto report = validator.validate(fusion);
  EXPECT_FALSE(report.ok);
  bool mentionsDisagree = false;
  for (const auto& issue : report.issues)
    if (issue.find("disagree") != std::string::npos) mentionsDisagree = true;
  EXPECT_TRUE(mentionsDisagree);
}

TEST(GestureValidator, FlagsLowLocalizedFraction) {
  auto fusion = goodFusion();
  for (std::size_t i = 0; i < fusion.stops.size(); ++i)
    fusion.stops[i].localized = i < 10;
  fusion.localizedCount = 10;
  const GestureValidator validator;
  const auto report = validator.validate(fusion);
  EXPECT_FALSE(report.ok);
}

}  // namespace
}  // namespace uniq::core
