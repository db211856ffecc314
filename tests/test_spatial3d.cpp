#include "spatial3d/elevation_renderer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/hrtf_table.h"
#include "dsp/fft_plan.h"
#include "dsp/peak_picking.h"
#include "dsp/spectrum.h"
#include "eval/metrics.h"
#include "head/hrtf_database.h"

namespace uniq::spatial3d {
namespace {

class ElevationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    head::Subject s;
    s.headParams = {0.074, 0.105, 0.09};
    s.pinnaSeed = 91;
    head::HrtfDatabase::Options dbOpts;
    db_ = new head::HrtfDatabase(s, dbOpts);
    table_ = new core::FarFieldTable(core::farTableFromDatabase(*db_));
    renderer_ = new ElevationRenderer(*table_, s.pinnaSeed);
  }
  static void TearDownTestSuite() {
    delete renderer_;
    delete table_;
    delete db_;
  }
  static head::HrtfDatabase* db_;
  static core::FarFieldTable* table_;
  static ElevationRenderer* renderer_;

  static double itdSamples(const head::Hrir& hrir) {
    const auto tapL = dsp::findFirstTap(hrir.left);
    const auto tapR = dsp::findFirstTap(hrir.right);
    return (tapR && tapL) ? tapR->position - tapL->position : 0.0;
  }
};

head::HrtfDatabase* ElevationTest::db_ = nullptr;
core::FarFieldTable* ElevationTest::table_ = nullptr;
ElevationRenderer* ElevationTest::renderer_ = nullptr;

TEST_F(ElevationTest, HorizonEqualsTable) {
  const auto synthesized = renderer_->hrirAt(60.0, 0.0);
  const auto& raw = table_->at(60.0);
  ASSERT_EQ(synthesized.left.size(), raw.left.size());
  for (std::size_t i = 0; i < raw.left.size(); ++i) {
    EXPECT_DOUBLE_EQ(synthesized.left[i], raw.left[i]);
    EXPECT_DOUBLE_EQ(synthesized.right[i], raw.right[i]);
  }
}

TEST_F(ElevationTest, LateralAngleMapping) {
  // At the horizon the mapping is the identity.
  EXPECT_NEAR(renderer_->equivalentLateralAngleDeg(50.0, 0.0), 50.0, 1e-9);
  // Straight overhead every azimuth collapses to the median plane, whose
  // lateral angle for a front source is 0 (and 180 for a back source).
  EXPECT_NEAR(renderer_->equivalentLateralAngleDeg(50.0, 80.0), 8.6, 1.0);
  EXPECT_NEAR(renderer_->equivalentLateralAngleDeg(130.0, 80.0), 171.4, 1.0);
  // Elevation shrinks the lateral angle monotonically.
  const double at0 = renderer_->equivalentLateralAngleDeg(70.0, 0.0);
  const double at30 = renderer_->equivalentLateralAngleDeg(70.0, 30.0);
  const double at60 = renderer_->equivalentLateralAngleDeg(70.0, 60.0);
  EXPECT_GT(at0, at30);
  EXPECT_GT(at30, at60);
}

TEST_F(ElevationTest, ItdShrinksWithElevation) {
  const double itd0 = itdSamples(renderer_->hrirAt(90.0, 0.0));
  const double itd45 = itdSamples(renderer_->hrirAt(90.0, 45.0));
  const double itd75 = itdSamples(renderer_->hrirAt(90.0, 75.0));
  EXPECT_GT(itd0, itd45);
  EXPECT_GT(itd45, itd75);
  EXPECT_GT(itd0, 20.0);  // full lateral ITD at the horizon
}

TEST_F(ElevationTest, NotchFrequencyRisesWithElevation) {
  // Isolate the elevation filter itself: the ratio of the synthesized
  // spectrum to the underlying 2D-table spectrum at the equivalent lateral
  // angle (the raw HRIR carries its own pinna notches, which would
  // confound a direct dip search).
  const auto notchFreq = [&](double el) {
    const auto hrir = renderer_->hrirAt(10.0, el);
    const auto& base =
        table_->at(renderer_->equivalentLateralAngleDeg(10.0, el));
    const auto padTo = [](std::vector<double> v) {
      v.resize(2048, 0.0);
      return v;
    };
    const auto specEl = dsp::rfft(padTo(hrir.left));
    const auto specBase = dsp::rfft(padTo(base.left));
    const double fs = hrir.sampleRate;
    double bestFreq = 0.0, bestDip = 1e18;
    for (double f = 3000.0; f <= 13000.0; f += 50.0) {
      const std::size_t bin = dsp::frequencyToBin(f, 2048, fs);
      const double ratio =
          std::abs(specEl[bin]) / (std::abs(specBase[bin]) + 1e-9);
      if (ratio < bestDip) {
        bestDip = ratio;
        bestFreq = f;
      }
    }
    return bestFreq;
  };
  const double low = notchFreq(-30.0);
  const double high = notchFreq(60.0);
  EXPECT_GT(high, low + 1000.0);
}

TEST_F(ElevationTest, ElevationChangesAreAudibleButSmooth) {
  const auto a = renderer_->hrirAt(45.0, 20.0);
  const auto b = renderer_->hrirAt(45.0, 25.0);
  const auto c = renderer_->hrirAt(45.0, 70.0);
  const double nearSim = eval::hrirSimilarity(a, b);
  const double farSim = eval::hrirSimilarity(a, c);
  EXPECT_GT(nearSim, 0.9);      // 5-degree step: smooth
  EXPECT_LT(farSim, nearSim);   // 50-degree step: clearly different
}

TEST_F(ElevationTest, DifferentUsersGetDifferentElevationCues) {
  const ElevationRenderer other(*table_, 424242);
  const auto mine = renderer_->hrirAt(45.0, 50.0);
  const auto theirs = other.hrirAt(45.0, 50.0);
  double diff = 0.0;
  for (std::size_t i = 0; i < mine.left.size(); ++i)
    diff += std::fabs(mine.left[i] - theirs.left[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST_F(ElevationTest, RenderAndValidation) {
  const std::vector<double> click{1.0, 0.0, -0.5};
  const auto out = renderer_->render(30.0, 40.0, click);
  EXPECT_GT(head::channelEnergy(out.left), 0.0);
  EXPECT_THROW(renderer_->hrirAt(30.0, 89.0), InvalidArgument);
  EXPECT_THROW(renderer_->hrirAt(30.0, -60.0), InvalidArgument);
  EXPECT_THROW(renderer_->render(30.0, 10.0, {}), InvalidArgument);
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
}  // namespace uniq::spatial3d
