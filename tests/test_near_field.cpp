#include "core/near_field_hrtf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "core/hrtf_table.h"
#include "dsp/peak_picking.h"
#include "eval/metrics.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "head/hrtf_database.h"

namespace uniq::core {
namespace {

constexpr double kFs = 48000.0;

/// Build synthetic "extracted channels" directly from the ground-truth
/// database (perfect extraction), with matching fused stops.
struct SyntheticStops {
  std::vector<FusedStop> stops;
  std::vector<BinauralChannel> channels;
  head::HeadParameters headParams;
};

SyntheticStops makeStops(const head::Subject& subject,
                         const std::vector<double>& angles,
                         double radius = 0.35) {
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase db(subject, dbOpts);
  SyntheticStops out;
  out.headParams = subject.headParams;
  for (double ang : angles) {
    const geo::Vec2 pos = geo::pointFromPolarDeg(ang, radius);
    const auto hrir = db.nearFieldAt(pos);
    FusedStop stop;
    stop.localized = true;
    stop.angleDeg = ang;
    stop.radiusM = radius;
    stop.imuAngleDeg = ang;
    stop.acousticAngleDeg = ang;
    BinauralChannel ch;
    ch.sampleRate = kFs;
    ch.left = hrir.left;
    ch.right = hrir.right;
    const auto tapL = dsp::findFirstTap(ch.left);
    const auto tapR = dsp::findFirstTap(ch.right);
    ch.firstTapLeftSec = tapL ? std::optional<double>(tapL->position / kFs)
                              : std::nullopt;
    ch.firstTapRightSec = tapR ? std::optional<double>(tapR->position / kFs)
                               : std::nullopt;
    out.stops.push_back(stop);
    out.channels.push_back(std::move(ch));
  }
  return out;
}

head::Subject testSubject() {
  head::Subject s;
  s.headParams = {0.071, 0.104, 0.089};
  s.pinnaSeed = 31;
  return s;
}

TEST(NearFieldBuilder, TableCoversFullRange) {
  std::vector<double> angles;
  for (double a = 5; a <= 175; a += 5) angles.push_back(a);
  auto data = makeStops(testSubject(), angles);
  const NearFieldHrtfBuilder builder;
  const auto table = builder.build(data.stops, data.channels, data.headParams);
  EXPECT_EQ(table.byDegree.size(), 181u);
  EXPECT_EQ(table.sampleRate, kFs);
  EXPECT_NEAR(table.medianRadiusM, 0.35, 1e-9);
  for (const auto& hrir : table.byDegree) {
    EXPECT_FALSE(hrir.empty());
    EXPECT_GT(head::channelEnergy(hrir.left), 0.0);
  }
}

TEST(NearFieldBuilder, TableMatchesTruthAtMeasuredAngles) {
  std::vector<double> angles;
  for (double a = 5; a <= 175; a += 5) angles.push_back(a);
  auto data = makeStops(testSubject(), angles);
  const NearFieldHrtfBuilder builder;
  const auto table = builder.build(data.stops, data.channels, data.headParams);

  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase db(testSubject(), dbOpts);
  for (double ang : {30.0, 60.0, 90.0, 120.0, 150.0}) {
    const auto truth = db.nearField(ang, 0.35);
    const auto sim = eval::hrirSimilarityPerEar(table.at(ang), truth);
    EXPECT_GT(sim.left, 0.9) << ang;
    EXPECT_GT(sim.right, 0.9) << ang;
  }
}

TEST(NearFieldBuilder, InterpolatedAnglesStillResembleTruth) {
  // Sparse coverage (15-degree spacing): intermediate angles interpolated.
  std::vector<double> angles;
  for (double a = 5; a <= 175; a += 15) angles.push_back(a);
  auto data = makeStops(testSubject(), angles);
  const NearFieldHrtfBuilder builder;
  const auto table = builder.build(data.stops, data.channels, data.headParams);

  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase db(testSubject(), dbOpts);
  for (double ang : {27.0, 42.0, 87.0, 133.0}) {
    const auto truth = db.nearField(ang, 0.35);
    const double sim = eval::hrirSimilarity(table.at(ang), truth);
    EXPECT_GT(sim, 0.7) << ang;
  }
}

TEST(NearFieldBuilder, ModelCorrectionImposesExpectedItd) {
  std::vector<double> angles;
  for (double a = 5; a <= 175; a += 10) angles.push_back(a);
  auto data = makeStops(testSubject(), angles);
  const NearFieldHrtfBuilder builder;
  const auto table = builder.build(data.stops, data.channels, data.headParams);

  const geo::HeadBoundary boundary(data.headParams.a, data.headParams.b,
                                   data.headParams.c, 256);
  for (int deg : {20, 60, 100, 160}) {
    const geo::Vec2 p =
        geo::pointFromPolarDeg(static_cast<double>(deg), table.medianRadiusM);
    const double expectedItd =
        (geo::nearFieldPath(boundary, p, geo::Ear::kLeft).length -
         geo::nearFieldPath(boundary, p, geo::Ear::kRight).length) /
        kSpeedOfSound;
    const double tableItd =
        (table.tapLeftSamples[deg] - table.tapRightSamples[deg]) / kFs;
    EXPECT_NEAR(tableItd, expectedItd, 2e-6) << deg;
    // And the actual channel taps sit where the table says they do.
    const auto tapL = dsp::findFirstTap(table.byDegree[deg].left);
    ASSERT_TRUE(tapL.has_value());
    EXPECT_NEAR(tapL->position, table.tapLeftSamples[deg], 1.5) << deg;
  }
}

TEST(NearFieldBuilder, SkipsUnlocalizedStops) {
  std::vector<double> angles;
  for (double a = 5; a <= 175; a += 10) angles.push_back(a);
  auto data = makeStops(testSubject(), angles);
  // Break half the stops.
  for (std::size_t i = 0; i < data.stops.size(); i += 2)
    data.stops[i].localized = false;
  const NearFieldHrtfBuilder builder;
  const auto table = builder.build(data.stops, data.channels, data.headParams);
  EXPECT_EQ(table.byDegree.size(), 181u);
}

TEST(NearFieldBuilder, RejectsTooFewUsableStops) {
  auto data = makeStops(testSubject(), {30.0, 60.0, 90.0});
  const NearFieldHrtfBuilder builder;
  EXPECT_THROW(builder.build(data.stops, data.channels, data.headParams),
               InvalidArgument);
}

TEST(NearFieldBuilder, RejectsMismatchedInputs) {
  auto data = makeStops(testSubject(), {30.0, 60.0, 90.0, 120.0, 150.0});
  data.channels.pop_back();
  const NearFieldHrtfBuilder builder;
  EXPECT_THROW(builder.build(data.stops, data.channels, data.headParams),
               InvalidArgument);
}

TEST(NearFieldTable, AtClampsOutOfRange) {
  auto data = makeStops(testSubject(), {10.0, 60.0, 110.0, 170.0});
  const NearFieldHrtfBuilder builder;
  const auto table = builder.build(data.stops, data.channels, data.headParams);
  EXPECT_EQ(&table.at(-20.0), &table.byDegree.front());
  EXPECT_EQ(&table.at(200.0), &table.byDegree.back());
  EXPECT_EQ(&table.at(90.4), &table.byDegree[90]);
}

TEST(HrtfTableTest, NearFieldRadiusChangesCues) {
  // Companion feature: distance-aware near-field rendering.
  head::Subject s;
  s.headParams = {0.074, 0.104, 0.09};
  s.pinnaSeed = 111;
  const head::HrtfDatabase db(s, head::HrtfDatabase::Options{});
  auto far = core::farTableFromDatabase(db);
  core::NearFieldTable nearTable;
  nearTable.sampleRate = far.sampleRate;
  nearTable.headParams = far.headParams;
  nearTable.medianRadiusM = 0.35;
  nearTable.byDegree.resize(181);
  nearTable.tapLeftSamples.assign(181, 24.0);
  nearTable.tapRightSamples.assign(181, 28.0);
  for (int deg = 0; deg <= 180; ++deg)
    nearTable.byDegree[deg] = db.nearField(static_cast<double>(deg), 0.35);
  const core::HrtfTable table(std::move(nearTable), std::move(far));

  const auto closeHrir = table.nearHrirAt(60.0, 0.18);
  const auto tableHrir = table.nearHrirAt(60.0, 0.35);
  const auto farHrir = table.nearHrirAt(60.0, 0.8);
  // Closer source: louder and earlier.
  EXPECT_GT(head::channelEnergy(closeHrir.left),
            head::channelEnergy(tableHrir.left));
  EXPECT_LT(head::channelEnergy(farHrir.left),
            head::channelEnergy(tableHrir.left));
  const auto tapClose = dsp::findFirstTap(closeHrir.left);
  const auto tapFar = dsp::findFirstTap(farHrir.left);
  ASSERT_TRUE(tapClose && tapFar);
  EXPECT_LT(tapClose->position, tapFar->position);
  // At the table radius it's the untouched table entry.
  const auto& raw = table.nearAt(60.0);
  for (std::size_t i = 0; i < raw.left.size(); ++i)
    EXPECT_DOUBLE_EQ(tableHrir.left[i], raw.left[i]);
  EXPECT_THROW(table.nearHrirAt(60.0, 0.05), InvalidArgument);
}

}  // namespace
}  // namespace uniq::core
