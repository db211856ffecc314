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

// A textbook sweep log: monotone clock, monotone 0..170 deg arc.
void cleanLog(std::vector<double>& times, std::vector<double>& angles,
              std::size_t n = 20) {
  times.clear();
  angles.clear();
  for (std::size_t i = 0; i < n; ++i) {
    times.push_back(0.1 * static_cast<double>(i));
    angles.push_back(170.0 * static_cast<double>(i) /
                     static_cast<double>(n - 1));
  }
}

TEST(GestureValidator, ImuLogAcceptsCleanSweep) {
  std::vector<double> times, angles;
  cleanLog(times, angles);
  const GestureValidator validator;
  const auto report = validator.validateImuLog(times, angles);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.issues.empty());
}

TEST(GestureValidator, ImuLogRejectsEmptyLog) {
  const GestureValidator validator;
  const auto report = validator.validateImuLog({}, {});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].find("empty"), std::string::npos);
}

TEST(GestureValidator, ImuLogRejectsCountMismatch) {
  const GestureValidator validator;
  const auto report = validator.validateImuLog({0.0, 0.1}, {0.0});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].find("mismatch"), std::string::npos);
}

TEST(GestureValidator, ImuLogRejectsSingleSample) {
  const GestureValidator validator;
  const auto report = validator.validateImuLog({0.0}, {42.0});
  EXPECT_FALSE(report.ok);
  bool tooShort = false;
  for (const auto& issue : report.issues)
    if (issue.find("too short") != std::string::npos) tooShort = true;
  EXPECT_TRUE(tooShort);
}

TEST(GestureValidator, ImuLogRejectsNonMonotonicTimestamps) {
  std::vector<double> times, angles;
  cleanLog(times, angles);
  times[7] = times[6];  // frozen clock for one sample
  const GestureValidator validator;
  const auto report = validator.validateImuLog(times, angles);
  EXPECT_FALSE(report.ok);
  bool clockIssue = false;
  for (const auto& issue : report.issues)
    if (issue.find("not strictly increasing") != std::string::npos)
      clockIssue = true;
  EXPECT_TRUE(clockIssue);
}

TEST(GestureValidator, ImuLogRejectsMidArcReversal) {
  std::vector<double> times, angles;
  cleanLog(times, angles);
  // The user swings back 40 deg mid-arc before continuing.
  angles[10] = angles[9] - 40.0;
  const GestureValidator validator;
  const auto report = validator.validateImuLog(times, angles);
  EXPECT_FALSE(report.ok);
  bool reversal = false;
  for (const auto& issue : report.issues)
    if (issue.find("reversed direction") != std::string::npos)
      reversal = true;
  EXPECT_TRUE(reversal);
}

TEST(GestureValidator, ImuLogRejectsShortSpan) {
  std::vector<double> times, angles;
  cleanLog(times, angles);
  for (auto& a : angles) a *= 0.3;  // 0..51 deg, well under 120
  const GestureValidator validator;
  const auto report = validator.validateImuLog(times, angles);
  EXPECT_FALSE(report.ok);
  bool span = false;
  for (const auto& issue : report.issues)
    if (issue.find("covers only") != std::string::npos) span = true;
  EXPECT_TRUE(span);
}

}  // namespace
}  // namespace uniq::core
