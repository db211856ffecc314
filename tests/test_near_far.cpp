#include "core/near_far.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"
#include "core/near_field_hrtf.h"
#include "core/pipeline.h"
#include "dsp/fractional_delay.h"
#include "dsp/peak_picking.h"
#include "eval/metrics.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "head/subject.h"
#include "sim/measurement_session.h"
#include "sim/trajectory.h"

namespace uniq::core {
namespace {

constexpr double kFs = 48000.0;

head::Subject testSubject() {
  head::Subject s;
  s.headParams = {0.072, 0.103, 0.090};
  s.pinnaSeed = 41;
  return s;
}

head::Subject otherSubject() {
  head::Subject s;
  s.headParams = {0.080, 0.112, 0.096};
  s.pinnaSeed = 4242;
  return s;
}

/// Ideal near-field table: built straight from the ground-truth database.
NearFieldTable idealNearTable(const head::Subject& subject) {
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase db(subject, dbOpts);
  std::vector<FusedStop> stops;
  std::vector<BinauralChannel> channels;
  for (double ang = 2; ang <= 178; ang += 4) {
    const geo::Vec2 pos = geo::pointFromPolarDeg(ang, 0.35);
    const auto hrir = db.nearFieldAt(pos);
    FusedStop stop;
    stop.localized = true;
    stop.angleDeg = ang;
    stop.radiusM = 0.35;
    stop.imuAngleDeg = ang;
    BinauralChannel ch;
    ch.sampleRate = kFs;
    ch.left = hrir.left;
    ch.right = hrir.right;
    const auto tapL = dsp::findFirstTap(ch.left);
    const auto tapR = dsp::findFirstTap(ch.right);
    ch.firstTapLeftSec = tapL->position / kFs;
    ch.firstTapRightSec = tapR->position / kFs;
    stops.push_back(stop);
    channels.push_back(std::move(ch));
  }
  const NearFieldHrtfBuilder builder;
  return builder.build(stops, channels, subject.headParams);
}

class NearFarTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    nearTable_ = new NearFieldTable(idealNearTable(testSubject()));
    head::HrtfDatabase::Options dbOpts;
    dbOpts.sampleRate = kFs;
    truthDb_ = new head::HrtfDatabase(testSubject(), dbOpts);
  }
  static void TearDownTestSuite() {
    delete nearTable_;
    delete truthDb_;
    nearTable_ = nullptr;
    truthDb_ = nullptr;
  }
  static NearFieldTable* nearTable_;
  static head::HrtfDatabase* truthDb_;
};

NearFieldTable* NearFarTest::nearTable_ = nullptr;
head::HrtfDatabase* NearFarTest::truthDb_ = nullptr;

TEST_F(NearFarTest, ConvertedTableHasExpectedShape) {
  const NearFarConverter converter;
  const auto far = converter.convert(*nearTable_);
  EXPECT_EQ(far.byDegree.size(), 181u);
  EXPECT_EQ(far.sampleRate, kFs);
  for (const auto& hrir : far.byDegree) {
    EXPECT_GT(head::channelEnergy(hrir.left), 0.0);
    EXPECT_GT(head::channelEnergy(hrir.right), 0.0);
  }
}

TEST_F(NearFarTest, ImposedDelaysMatchPlaneWaveModel) {
  const NearFarConverter converter;
  const auto far = converter.convert(*nearTable_);
  const auto& E = nearTable_->headParams;
  const geo::HeadBoundary boundary(E.a, E.b, E.c, 256);
  for (int deg : {10, 50, 90, 130, 170}) {
    const geo::Vec2 d =
        -geo::directionFromAzimuthDeg(static_cast<double>(deg));
    const double expectedItd =
        (geo::farFieldPath(boundary, d, geo::Ear::kLeft).length -
         geo::farFieldPath(boundary, d, geo::Ear::kRight).length) /
        kSpeedOfSound;
    const double tableItd =
        (far.tapLeftSamples[deg] - far.tapRightSamples[deg]) / kFs;
    EXPECT_NEAR(tableItd, expectedItd, 2e-6) << deg;
  }
}

TEST_F(NearFarTest, ConvertedFarMatchesTruthFarBetterThanOtherSubject) {
  const NearFarConverter converter;
  const auto far = converter.convert(*nearTable_);
  const auto truthFar = farTableFromDatabase(*truthDb_);
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase otherDb(otherSubject(), dbOpts);
  const auto otherFar = farTableFromDatabase(otherDb);

  double simTruth = 0.0, simOther = 0.0;
  int count = 0;
  for (double ang = 10; ang <= 170; ang += 20) {
    simTruth += eval::hrirSimilarity(far.at(ang), truthFar.at(ang));
    simOther += eval::hrirSimilarity(otherFar.at(ang), truthFar.at(ang));
    ++count;
  }
  simTruth /= count;
  simOther /= count;
  EXPECT_GT(simTruth, 0.7);
  EXPECT_GT(simTruth, simOther + 0.1);
}

TEST_F(NearFarTest, ShadowedEarAttenuatedInFarTable) {
  const NearFarConverter converter;
  const auto far = converter.convert(*nearTable_);
  // Plane wave from the left (90 deg): right ear shadowed.
  const auto& hrir = far.at(90.0);
  EXPECT_GT(head::channelEnergy(hrir.left),
            2.0 * head::channelEnergy(hrir.right));
}

TEST_F(NearFarTest, RejectsWrongTableSize) {
  NearFieldTable bad = *nearTable_;
  bad.byDegree.resize(90);
  const NearFarConverter converter;
  EXPECT_THROW(converter.convert(bad), InvalidArgument);
}

/// The converter as it was before each near-field channel was aligned
/// once: every (degree, ear, psi) contribution shifts its channel from the
/// channel's own tap to kFarFieldAlignSample on its own. Counts the
/// degree-ears that take the sparse-coverage fallback in `fallbackHits`.
FarFieldTable perContributionConvert(const NearFieldTable& nearTable,
                                     const NearFarConverterOptions& opts,
                                     int& fallbackHits) {
  const auto accumulate = [](std::vector<double>& acc,
                             const std::vector<double>& channel,
                             double currentTap, double targetTap,
                             double weight) {
    const auto shifted = dsp::fractionalShift(channel, targetTap - currentTap);
    for (std::size_t i = 0; i < acc.size() && i < shifted.size(); ++i)
      acc[i] += weight * shifted[i];
  };
  const auto& E = nearTable.headParams;
  const geo::HeadBoundary boundary(E.a, E.b, E.c, kTableBoundaryResolution);
  const double fs = nearTable.sampleRate;
  FarFieldTable far;
  far.byDegree.resize(181);
  far.tapLeftSamples.resize(181);
  far.tapRightSamples.resize(181);
  std::vector<geo::Vec2> positions(181);
  std::vector<double> ampNearLeft(181), ampNearRight(181);
  for (int psi = 0; psi <= 180; ++psi) {
    positions[psi] = geo::pointFromPolarDeg(static_cast<double>(psi),
                                            nearTable.medianRadiusM);
    for (geo::Ear ear : {geo::Ear::kLeft, geo::Ear::kRight}) {
      const auto nearPath = geo::nearFieldPath(boundary, positions[psi], ear);
      (ear == geo::Ear::kLeft ? ampNearLeft : ampNearRight)[psi] =
          (1.0 / std::max(nearPath.length, 0.05)) *
          std::exp(-kArcAttenuationNepersPerMeter * nearPath.arcLength);
    }
  }
  for (int deg = 0; deg <= 180; ++deg) {
    const geo::Vec2 d = -geo::directionFromAzimuthDeg(static_cast<double>(deg));
    const geo::Vec2 e = d.perp();
    const double sQ = dot(boundary.pointAt(boundary.indexWithNormal(-d)), e);
    head::Hrir hrir;
    hrir.left.assign(kHrirLength, 0.0);
    hrir.right.assign(kHrirLength, 0.0);
    const auto pathL = geo::farFieldPath(boundary, d, geo::Ear::kLeft);
    const auto pathR = geo::farFieldPath(boundary, d, geo::Ear::kRight);
    const double dMin = std::min(pathL.length, pathR.length);
    const double tapLFar =
        kFarFieldAlignSample + (pathL.length - dMin) / kSpeedOfSound * fs;
    const double tapRFar =
        kFarFieldAlignSample + (pathR.length - dMin) / kSpeedOfSound * fs;
    for (geo::Ear ear : {geo::Ear::kLeft, geo::Ear::kRight}) {
      const bool left = ear == geo::Ear::kLeft;
      const auto& path = left ? pathL : pathR;
      auto& channel = left ? hrir.left : hrir.right;
      const auto& nearTaps =
          left ? nearTable.tapLeftSamples : nearTable.tapRightSamples;
      const auto& ampNear = left ? ampNearLeft : ampNearRight;
      const double sEar = path.diffracted ? dot(path.tangentPoint, e)
                                          : dot(earPosition(boundary, ear), e);
      const double sLo = std::min(sQ, sEar);
      const double sHi = std::max(sQ, sEar);
      const double sigma = std::max((sHi - sLo) / opts.raySigmaDivisor, 1e-4);
      const double ampFar =
          std::exp(-kArcAttenuationNepersPerMeter * path.arcLength);
      double weightSum = 0.0;
      for (int psi = 0; psi <= 180; ++psi) {
        const geo::Vec2 p = positions[psi];
        if (dot(d, p) >= 0.0) continue;
        const double s = dot(p, e);
        if (s < sLo || s > sHi) continue;
        const double w = std::exp(-0.5 * square((s - sEar) / sigma));
        const auto& src = left ? nearTable.byDegree[psi].left
                               : nearTable.byDegree[psi].right;
        accumulate(channel, src, nearTaps[psi], kFarFieldAlignSample,
                   w * ampFar / ampNear[psi]);
        weightSum += w;
      }
      if (weightSum < 1e-12) {
        ++fallbackHits;
        const auto& src = left ? nearTable.byDegree[deg].left
                               : nearTable.byDegree[deg].right;
        accumulate(channel, src, nearTaps[deg], kFarFieldAlignSample,
                   ampFar / ampNear[deg]);
        weightSum = 1.0;
      }
      for (auto& v : channel) v /= weightSum;
      const double targetTap = left ? tapLFar : tapRFar;
      channel =
          dsp::fractionalShift(channel, targetTap - kFarFieldAlignSample);
    }
    far.tapLeftSamples[deg] = tapLFar;
    far.tapRightSamples[deg] = tapRFar;
    far.byDegree[deg] = std::move(hrir);
  }
  return far;
}

/// Same length and the same bits in every sample (so +0.0 != -0.0).
bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The near-field table `uniq calibrate --seed <seed>` builds.
NearFieldTable calibratedNearTable(std::uint64_t seed) {
  const auto subject = head::makePopulation(1, seed)[0];
  const sim::MeasurementSession session;
  const auto capture = session.run(subject, sim::defaultGesture());
  return CalibrationPipeline().run(capture).table.nearTable();
}

// Aligning each near-field channel once, before the degree loop, must give
// the per-contribution path's output exactly: same shifts, same weights,
// same summation order. The tables are an ideal NearFieldHrtfBuilder table, the
// database table BM_NearFarConvert converts, and the tables
// `uniq calibrate` builds for seeds 42 and 3. Each of the four takes the
// fallback once (degree 0, right ear: the band's one candidate, psi = 0,
// sits on its crown edge and rounding leaves it out), so the fallback is
// compared too.
TEST_F(NearFarTest, AlignOnceMatchesPerContributionShiftBitForBit) {
  head::Subject benchSubject;  // BM_NearFarConvert's
  benchSubject.headParams = {0.075, 0.103, 0.091};
  benchSubject.pinnaSeed = 11;
  const head::HrtfDatabase db(benchSubject);
  const std::vector<std::pair<const char*, NearFieldTable>> tables = {
      {"ideal", *nearTable_},
      {"database", nearTableFromDatabase(db, 0.35)},
      {"calibrated-seed-42", calibratedNearTable(42)},
      {"calibrated-seed-3", calibratedNearTable(3)},
  };
  const NearFarConverter converter;
  int tablesWithFallback = 0;
  for (const auto& [name, table] : tables) {
    int fallbackHits = 0;
    const auto want = perContributionConvert(table, {}, fallbackHits);
    const auto got = converter.convert(table);
    if (fallbackHits > 0) ++tablesWithFallback;
    EXPECT_EQ(got.tapLeftSamples, want.tapLeftSamples) << name;
    EXPECT_EQ(got.tapRightSamples, want.tapRightSamples) << name;
    for (int deg = 0; deg <= 180; ++deg) {
      EXPECT_TRUE(sameBits(got.byDegree[deg].left, want.byDegree[deg].left))
          << name << " deg " << deg;
      EXPECT_TRUE(sameBits(got.byDegree[deg].right, want.byDegree[deg].right))
          << name << " deg " << deg;
    }
  }
  EXPECT_GE(tablesWithFallback, 1);
}

TEST(FarTableFromDatabase, TapsAnchoredAtAlignSample) {
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase db(testSubject(), dbOpts);
  const auto table = farTableFromDatabase(db);
  for (int deg : {0, 45, 90, 135, 180}) {
    const double minTap =
        std::min(table.tapLeftSamples[deg], table.tapRightSamples[deg]);
    EXPECT_NEAR(minTap, kFarFieldAlignSample, 1e-9) << deg;
    // Verify the actual channel energy starts near the declared tap.
    const auto& earlier = table.tapLeftSamples[deg] < table.tapRightSamples[deg]
                              ? table.byDegree[deg].left
                              : table.byDegree[deg].right;
    const auto tap = dsp::findFirstTap(earlier);
    ASSERT_TRUE(tap.has_value());
    EXPECT_NEAR(tap->position, kFarFieldAlignSample, 2.0) << deg;
  }
}

TEST(FarTableFromDatabase, ItdSymmetricFrontBackForSymmetricHead) {
  head::Subject s;
  s.headParams = {0.075, 0.095, 0.095};
  s.pinnaSeed = 51;
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase db(s, dbOpts);
  const auto table = farTableFromDatabase(db);
  for (int deg : {20, 40, 60, 80}) {
    const double itdFront =
        table.tapLeftSamples[deg] - table.tapRightSamples[deg];
    const double itdBack = table.tapLeftSamples[180 - deg] -
                           table.tapRightSamples[180 - deg];
    EXPECT_NEAR(itdFront, itdBack, 0.35) << deg;
  }
}

}  // namespace
}  // namespace uniq::core
