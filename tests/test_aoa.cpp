#include "core/aoa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "core/pipeline.h"
#include "dsp/convolution.h"
#include "dsp/correlation.h"
#include "dsp/fft_plan.h"
#include "dsp/signal_generators.h"
#include "dsp/spectrum.h"
#include "eval/experiments.h"
#include "head/hrtf_database.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "sim/measurement_session.h"
#include "sim/recorder.h"

namespace uniq::core {
namespace {

constexpr double kFs = 48000.0;

std::uint64_t fftTransforms() {
  return obs::registry().counter("fft.transforms").value();
}

std::uint64_t templateFills() {
  return obs::registry().counter("aoa.template_cache.fills").value();
}

/// The Eq. 11 band bins [bLo, bHi] at FFT size n, as estimateUnknown takes
/// them.
std::pair<std::size_t, std::size_t> aoaBand(std::size_t n, double fs) {
  return {dsp::frequencyToBin(kAoaBandLoHz, n, fs),
          std::min(dsp::frequencyToBin(kAoaBandHiHz, n, fs), n / 2)};
}

/// |X| over bins [bLo, bHi] of x's n-point transform.
std::vector<double> exactBand(const std::vector<double>& x, std::size_t n,
                              std::size_t bLo, std::size_t bHi) {
  const auto spectrum = dsp::fftPlan(n)->rfft(x);
  std::vector<double> m;
  for (std::size_t k = bLo; k <= bHi; ++k)
    m.push_back(std::sqrt(std::norm(spectrum[k])));
  return m;
}

/// A template's magnitudes as the unknown-source residual defines them:
/// |H| of the template's 2048-point transform, interpolated linearly onto
/// bins [bLo, bHi] of an n-point one (bin k sits at coarse position
/// k * 2048 / n).
std::vector<double> templateBand(const std::vector<double>& x, std::size_t n,
                                 std::size_t bLo, std::size_t bHi) {
  constexpr std::size_t kCoarse = 2048;
  const auto coarse = exactBand(x, kCoarse, 0, kCoarse / 2);
  std::vector<double> m;
  for (std::size_t k = bLo; k <= bHi; ++k) {
    const double pos =
        static_cast<double>(k) * kCoarse / static_cast<double>(n);
    const auto i = static_cast<std::size_t>(pos);
    const double t = pos - static_cast<double>(i);
    const double lo = coarse[i];
    const double hi = coarse[std::min(i + 1, kCoarse / 2)];
    m.push_back(lo + t * (hi - lo));
  }
  return m;
}

head::Subject testSubject() {
  head::Subject s;
  s.headParams = {0.074, 0.106, 0.091};
  s.pinnaSeed = 61;
  return s;
}

class AoaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    head::HrtfDatabase::Options dbOpts;
    dbOpts.sampleRate = kFs;
    db_ = new head::HrtfDatabase(testSubject(), dbOpts);
    table_ = new FarFieldTable(farTableFromDatabase(*db_));
    hardware_ = new sim::HardwareModel();
    room_ = new sim::RoomModel();
  }
  static void TearDownTestSuite() {
    delete db_;
    delete table_;
    delete hardware_;
    delete room_;
  }

  sim::BinauralRecording record(double angleDeg,
                                const std::vector<double>& signal,
                                bool throughHardware, double snrDb,
                                std::uint64_t seed) const {
    sim::BinauralRecorder::Options opts;
    opts.snrDb = snrDb;
    const sim::BinauralRecorder recorder(*db_, *hardware_, *room_, opts);
    Pcg32 rng(seed);
    return recorder.recordFarField(angleDeg, signal, rng, throughHardware);
  }

  static head::HrtfDatabase* db_;
  static FarFieldTable* table_;
  static sim::HardwareModel* hardware_;
  static sim::RoomModel* room_;
};

head::HrtfDatabase* AoaTest::db_ = nullptr;
FarFieldTable* AoaTest::table_ = nullptr;
sim::HardwareModel* AoaTest::hardware_ = nullptr;
sim::RoomModel* AoaTest::room_ = nullptr;

TEST_F(AoaTest, TemplateDelayMonotoneUpToNinety) {
  const AoaEstimator est(*table_);
  // t(theta) = tapLeft - tapRight: negative on the left side, decreasing
  // toward 90 then rising again (front/back ambiguity).
  EXPECT_NEAR(est.templateDelaySec(0.0), 0.0, 5e-5);
  EXPECT_NEAR(est.templateDelaySec(180.0), 0.0, 5e-5);
  EXPECT_LT(est.templateDelaySec(90.0), est.templateDelaySec(30.0));
  EXPECT_LT(est.templateDelaySec(90.0), est.templateDelaySec(150.0));
  EXPECT_LT(est.templateDelaySec(90.0), -5e-4);
}

class KnownSourceSweep : public AoaTest,
                         public ::testing::WithParamInterface<double> {};

TEST_P(KnownSourceSweep, TrueTemplatesGiveAccurateAoa) {
  const double truth = GetParam();
  const auto chirp = dsp::linearChirp(100.0, 20000.0, 4800, kFs);
  const auto rec = record(truth, chirp, true, 25.0,
                          static_cast<std::uint64_t>(truth * 7 + 1));
  const AoaEstimator est(*table_);
  const auto result = est.estimateKnown(rec.left, rec.right, chirp);
  EXPECT_LT(angularDistanceDeg(result.angleDeg, truth), 6.0);
}

INSTANTIATE_TEST_SUITE_P(Angles, KnownSourceSweep,
                         ::testing::Values(10.0, 35.0, 60.0, 90.0, 120.0,
                                           145.0, 170.0));

TEST_F(AoaTest, KnownSourceTransformsTheSourceOnce) {
  // Both ears share an FFT size: one source transform, then a forward and
  // an inverse transform per ear.
  const auto chirp = dsp::linearChirp(100.0, 20000.0, 4800, kFs);
  const auto rec = record(40.0, chirp, true, 25.0, 12);
  ASSERT_EQ(rec.left.size(), rec.right.size());
  const AoaEstimator est(*table_);
  const auto before = fftTransforms();
  const auto result = est.estimateKnown(rec.left, rec.right, chirp);
  ASSERT_FALSE(result.degraded);
  EXPECT_EQ(fftTransforms() - before, 5u);
}

TEST_F(AoaTest, KnownSourcePersonalBeatsWrongTemplates) {
  head::Subject other;
  other.headParams = {0.065, 0.112, 0.080};
  other.pinnaSeed = 777;
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kFs;
  const head::HrtfDatabase otherDb(other, dbOpts);
  const auto otherTable = farTableFromDatabase(otherDb);

  const auto chirp = dsp::linearChirp(100.0, 20000.0, 4800, kFs);
  double errPersonal = 0.0, errOther = 0.0;
  for (double truth : {20.0, 55.0, 75.0, 110.0, 140.0, 165.0}) {
    const auto rec = record(truth, chirp, true, 25.0,
                            static_cast<std::uint64_t>(truth) * 3 + 5);
    const AoaEstimator personal(*table_);
    const AoaEstimator mismatched(otherTable);
    errPersonal += angularDistanceDeg(
        personal.estimateKnown(rec.left, rec.right, chirp).angleDeg, truth);
    errOther += angularDistanceDeg(
        mismatched.estimateKnown(rec.left, rec.right, chirp).angleDeg, truth);
  }
  EXPECT_LT(errPersonal, errOther);
}

class UnknownSourceSweep : public AoaTest,
                           public ::testing::WithParamInterface<double> {};

TEST_P(UnknownSourceSweep, WhiteNoiseUnknownSourceAccurate) {
  const double truth = GetParam();
  Pcg32 sigRng(static_cast<std::uint64_t>(truth) + 11);
  const auto noise = dsp::whiteNoise(24000, sigRng, 0.25);
  const auto rec = record(truth, noise, false, 25.0,
                          static_cast<std::uint64_t>(truth) * 13 + 3);
  const AoaEstimator est(*table_);
  const auto result = est.estimateUnknown(rec.left, rec.right);
  EXPECT_LT(angularDistanceDeg(result.angleDeg, truth), 15.0);
  EXPECT_EQ(truth <= 90.0, result.angleDeg <= 90.0) << "front/back flip";
}

INSTANTIATE_TEST_SUITE_P(Angles, UnknownSourceSweep,
                         ::testing::Values(15.0, 45.0, 75.0, 105.0, 140.0,
                                           165.0));

TEST_F(AoaTest, UnknownSourceRejectsEmpty) {
  const AoaEstimator est(*table_);
  std::vector<double> empty;
  std::vector<double> some(100, 0.1);
  EXPECT_THROW(est.estimateUnknown(empty, some), InvalidArgument);
  EXPECT_THROW(est.estimateKnown(some, some, empty), InvalidArgument);
}

TEST_F(AoaTest, KnownSourceDegradesGracefullyOnDeadChannel) {
  // A dead left channel means no detectable first tap: the Eq. 9 path has
  // nothing to anchor on. The estimator must fall back instead of throwing
  // and mark the result as degraded with reduced confidence.
  const auto chirp = dsp::linearChirp(100.0, 20000.0, 4800, kFs);
  const auto rec = record(60.0, chirp, true, 25.0, 17);
  const std::vector<double> dead(rec.left.size(), 0.0);
  const AoaEstimator est(*table_);
  AoaEstimate result;
  EXPECT_NO_THROW(result = est.estimateKnown(dead, rec.right, chirp));
  EXPECT_TRUE(result.degraded);
  EXPECT_LE(result.confidence, 0.5);
  EXPECT_GE(result.angleDeg, 0.0);
  EXPECT_LE(result.angleDeg, 180.0);
}

TEST_F(AoaTest, HealthyEstimateCarriesConfidence) {
  const auto chirp = dsp::linearChirp(100.0, 20000.0, 4800, kFs);
  const auto rec = record(90.0, chirp, true, 25.0, 23);
  const AoaEstimator est(*table_);
  const auto result = est.estimateKnown(rec.left, rec.right, chirp);
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.scoreMargin, 0.0);
  EXPECT_GT(result.confidence, 0.0);
  EXPECT_LT(result.confidence, 1.0);
}

TEST_F(AoaTest, EstimatorRejectsBadTable) {
  FarFieldTable bad = *table_;
  bad.byDegree.resize(10);
  EXPECT_THROW(AoaEstimator{bad}, InvalidArgument);
}

// The template-magnitude cache is on for every estimator, and candidate
// scoring reads it from pool threads: parallel estimateUnknown calls
// sharing one estimator must give the serial answers. Two recording
// lengths per angle make the calls fill the cache under each other.
class AoaTemplateCache : public AoaTest {};

TEST_F(AoaTemplateCache, ParallelUnknownEstimatesMatchSerial) {
  std::vector<sim::BinauralRecording> recs;
  for (const double truth : {20.0, 70.0, 115.0, 160.0}) {
    const auto seed = static_cast<std::uint64_t>(truth);
    for (const std::size_t samples : {6000, 12000}) {
      Pcg32 sigRng(seed + samples);
      const auto noise = dsp::whiteNoise(samples, sigRng, 0.25);
      recs.push_back(record(truth, noise, false, 25.0, seed + 5));
    }
  }
  std::vector<AoaEstimate> serial;
  {
    const AoaEstimator est(*table_);
    for (const auto& r : recs)
      serial.push_back(est.estimateUnknown(r.left, r.right));
  }

  const AoaEstimator shared(*table_);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<AoaEstimate>> got(
      kThreads, std::vector<AoaEstimate>(kRounds * recs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the recordings from its own offset.
      for (std::size_t i = 0; i < kRounds * recs.size(); ++i) {
        const auto& r = recs[(i + t) % recs.size()];
        got[t][i] = shared.estimateUnknown(r.left, r.right);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kRounds * recs.size(); ++i) {
      const auto& want = serial[(i + t) % recs.size()];
      EXPECT_EQ(got[t][i].angleDeg, want.angleDeg) << t << "/" << i;
      EXPECT_EQ(got[t][i].score, want.score) << t << "/" << i;
    }
  }
}

TEST_F(AoaTemplateCache, RepeatQueryRecomputesNoTemplate) {
  Pcg32 sigRng(3);
  const auto noise = dsp::whiteNoise(12000, sigRng, 0.25);
  const auto rec = record(50.0, noise, false, 25.0, 9);
  const AoaEstimator est(*table_);
  auto& fills = obs::registry().counter("aoa.template_cache.fills");
  const auto before = fills.value();
  const auto first = est.estimateUnknown(rec.left, rec.right);
  const auto filled = fills.value() - before;
  EXPECT_GT(filled, 0u);
  const auto second = est.estimateUnknown(rec.left, rec.right);
  EXPECT_EQ(fills.value() - before, filled);
  EXPECT_EQ(second.angleDeg, first.angleDeg);
  EXPECT_EQ(second.score, first.score);
}

TEST_F(AoaTemplateCache, UnknownSourceReadsBandMagnitudesFromGccPhatSpectra) {
  // A recording of at most one frame, equal on both ears, at GCC-PHAT's FFT
  // size: the band magnitudes come from the two spectra GCC-PHAT computed.
  Pcg32 sigRng(4);
  const auto noise = dsp::whiteNoise(4800, sigRng, 0.25);
  const auto rec = record(65.0, noise, false, 25.0, 10);
  ASSERT_EQ(rec.left.size(), rec.right.size());
  const std::size_t n = dsp::gccPhatSize(rec.left.size(), rec.right.size());
  ASSERT_EQ(n, dsp::nextPowerOfTwo(2 * std::max<std::size_t>(
                   rec.left.size(), table_->byDegree[0].left.size())));

  const AoaEstimator est(*table_);
  est.estimateUnknown(rec.left, rec.right);  // fills the templates it needs
  const auto before = fftTransforms();
  const auto got = est.estimateUnknown(rec.left, rec.right);
  // Two forward transforms and GCC-PHAT's inverse; no band transforms.
  EXPECT_EQ(fftTransforms() - before, 3u);

  // The winner's Eq. 11 score, with every spectrum transformed on its own
  // and the template magnitudes interpolated from 2048 points.
  const auto [bLo, bHi] = aoaBand(n, kFs);
  const auto& tmpl =
      table_->byDegree[static_cast<std::size_t>(std::lround(got.angleDeg))];
  const auto l = exactBand(rec.left, n, bLo, bHi);
  const auto r = exactBand(rec.right, n, bLo, bHi);
  const auto hl = templateBand(tmpl.left, n, bLo, bHi);
  const auto hr = templateBand(tmpl.right, n, bLo, bHi);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < l.size(); ++k) {
    const double lhs = l[k] * hr[k];
    const double rhs = r[k] * hl[k];
    num += square(lhs - rhs);
    den += square(lhs) + square(rhs);
  }
  EXPECT_EQ(got.score, den > 1e-30 ? num / den : 2.0);
}

TEST_F(AoaTemplateCache, RecordingLengthsShareOneEstimatorsFills) {
  // Recordings whose residual runs at FFT sizes 16384 (frames), 4096 and
  // 1024 (below the templates' 2048-point transform) read the same cached
  // template magnitudes: once each length has been seen, alternating
  // between them fills nothing, and every answer equals a fresh
  // estimator's. Each recording is noise through the 100-degree template.
  const auto& hrir = table_->byDegree[100];
  std::vector<sim::BinauralRecording> recs;
  const std::pair<std::size_t, std::size_t> lengths[] = {
      {12000, 16384}, {1500, 4096}, {300, 1024}};  // noise samples, n
  for (const auto& [samples, n] : lengths) {
    Pcg32 sigRng(samples);
    const auto noise = dsp::whiteNoise(samples, sigRng, 0.25);
    sim::BinauralRecording rec;
    rec.left = dsp::convolve(noise, hrir.left);
    rec.right = dsp::convolve(noise, hrir.right);
    ASSERT_EQ(dsp::nextPowerOfTwo(
                  2 * std::min<std::size_t>(rec.left.size(), 8192)),
              n);
    recs.push_back(std::move(rec));
  }
  std::vector<AoaEstimate> fresh;
  for (const auto& r : recs)
    fresh.push_back(AoaEstimator(*table_).estimateUnknown(r.left, r.right));

  const AoaEstimator shared(*table_);
  for (const auto& r : recs) shared.estimateUnknown(r.left, r.right);
  const auto before = templateFills();
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const auto got = shared.estimateUnknown(recs[i].left, recs[i].right);
      EXPECT_EQ(got.angleDeg, fresh[i].angleDeg) << i;
      EXPECT_EQ(got.score, fresh[i].score) << i;
    }
  }
  EXPECT_EQ(templateFills() - before, 0u);
}

// The 2048-point template magnitudes, interpolated onto a 16384-point
// query's band bins, against the exact 16384-point magnitudes: every angle
// and both ears of the population-average table and of the table the
// pipeline calibrates for seed 42.
TEST(AoaTemplateMagnitudes, InterpolationTracksExactSpectrum) {
  const head::HrtfDatabase averageDb(head::globalTemplateSubject());
  const auto average = farTableFromDatabase(averageDb);
  const auto subject = head::makePopulation(1, 42)[0];
  const auto capture =
      sim::MeasurementSession().run(subject, sim::defaultGesture());
  const auto calibrated = CalibrationPipeline().run(capture).table.farTable();

  constexpr std::size_t n = 16384;
  for (const auto* table : {&average, &calibrated}) {
    const auto [bLo, bHi] = aoaBand(n, table->sampleRate);
    double worstRms = 0.0, worstMax = 0.0;
    for (std::size_t deg = 0; deg < table->byDegree.size(); ++deg) {
      for (const auto* ear :
           {&table->byDegree[deg].left, &table->byDegree[deg].right}) {
        const auto exact = exactBand(*ear, n, bLo, bHi);
        const auto approx = templateBand(*ear, n, bLo, bHi);
        double err2 = 0.0, ref2 = 0.0, errMax = 0.0;
        for (std::size_t k = 0; k < exact.size(); ++k) {
          const double e = approx[k] - exact[k];
          err2 += e * e;
          ref2 += exact[k] * exact[k];
          errMax = std::max(errMax, std::fabs(e));
        }
        ASSERT_GT(ref2, 0.0) << deg;
        const double bandRms = std::sqrt(ref2 / exact.size());
        worstRms = std::max(worstRms, std::sqrt(err2 / ref2));
        worstMax = std::max(worstMax, errMax / bandRms);
      }
    }
    const char* name = table == &average ? "average" : "seed 42";
    EXPECT_LE(worstRms, 2e-3) << name;
    EXPECT_LE(worstMax, 0.05) << name;
  }
}

}  // namespace
}  // namespace uniq::core
