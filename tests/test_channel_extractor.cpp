#include "core/channel_extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/convolution.h"
#include "dsp/deconvolution.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/signal_generators.h"
#include "eval/metrics.h"
#include "geometry/polar.h"
#include "head/hrtf_database.h"
#include "sim/hardware_model.h"
#include "sim/recorder.h"
#include "sim/room_model.h"

namespace uniq::core {
namespace {

constexpr double kFs = 48000.0;

class ChannelExtractorTest : public ::testing::Test {
 protected:
  static head::Subject subject() {
    head::Subject s;
    s.headParams = {0.073, 0.101, 0.089};
    s.pinnaSeed = 21;
    return s;
  }

  head::HrtfDatabase db_{subject()};
  sim::HardwareModel hardware_{};
  sim::RoomModel room_{};
  std::vector<double> chirp_ = dsp::linearChirp(100.0, 20000.0, 960, kFs);
};

TEST_F(ChannelExtractorTest, RecoversTrueChannelShape) {
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 30.0;
  const sim::BinauralRecorder recorder(db_, hardware_, room_, recOpts);
  Pcg32 rng(1);
  const geo::Vec2 pos = geo::pointFromPolarDeg(50.0, 0.35);
  const auto rec = recorder.recordNearField(pos, chirp_, rng);

  Pcg32 hwRng(2);
  const ChannelExtractor extractor(hardware_.estimateResponse(35.0, hwRng),
                                   kFs);
  const auto channel = extractor.extract(rec.left, rec.right, chirp_);

  const auto truth = db_.nearFieldAt(pos);
  const double simL =
      eval::channelSimilarity(channel.left, truth.left, kFs, 0.5);
  const double simR =
      eval::channelSimilarity(channel.right, truth.right, kFs, 0.5);
  EXPECT_GT(simL, 0.85);
  EXPECT_GT(simR, 0.75);
}

TEST_F(ChannelExtractorTest, FirstTapMatchesPropagationDelay) {
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 35.0;
  const sim::BinauralRecorder recorder(db_, hardware_, room_, recOpts);
  Pcg32 rng(3);
  for (double theta : {20.0, 70.0, 110.0, 160.0}) {
    const geo::Vec2 pos = geo::pointFromPolarDeg(theta, 0.33);
    const auto rec = recorder.recordNearField(pos, chirp_, rng);
    Pcg32 hwRng(4);
    const ChannelExtractor extractor(hardware_.estimateResponse(35.0, hwRng),
                                     kFs);
    const auto channel = extractor.extract(rec.left, rec.right, chirp_);
    ASSERT_TRUE(channel.firstTapLeftSec.has_value()) << theta;
    ASSERT_TRUE(channel.firstTapRightSec.has_value()) << theta;
    const auto pathL = geo::nearFieldPath(db_.boundary(), pos, geo::Ear::kLeft);
    const auto pathR =
        geo::nearFieldPath(db_.boundary(), pos, geo::Ear::kRight);
    EXPECT_NEAR(*channel.firstTapLeftSec, pathL.length / kSpeedOfSound,
                4e-5)
        << theta;
    EXPECT_NEAR(*channel.firstTapRightSec, pathR.length / kSpeedOfSound,
                6e-5)
        << theta;
  }
}

TEST_F(ChannelExtractorTest, RoomReflectionsRemoved) {
  sim::RoomModel::Options loudRoom;
  loudRoom.firstEchoGain = 0.5;
  const sim::RoomModel room(loudRoom);
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 40.0;
  const sim::BinauralRecorder recorder(db_, hardware_, room, recOpts);
  Pcg32 rng(5);
  const geo::Vec2 pos = geo::pointFromPolarDeg(40.0, 0.35);
  const auto rec = recorder.recordNearField(pos, chirp_, rng);
  Pcg32 hwRng(6);
  const ChannelExtractor extractor(hardware_.estimateResponse(35.0, hwRng),
                                   kFs);
  const auto channel = extractor.extract(rec.left, rec.right, chirp_);
  ASSERT_TRUE(channel.firstTapLeftSec.has_value());
  // No energy beyond firstTap + headWindow.
  const auto cutoff = static_cast<std::size_t>(
      (*channel.firstTapLeftSec + kHeadWindowSec) * kFs + 2);
  for (std::size_t i = cutoff; i < channel.left.size(); ++i)
    EXPECT_DOUBLE_EQ(channel.left[i], 0.0);
}

TEST_F(ChannelExtractorTest, HardwareCompensationImprovesEstimate) {
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 35.0;
  const sim::BinauralRecorder recorder(db_, hardware_, room_, recOpts);
  Pcg32 rng(7);
  const geo::Vec2 pos = geo::pointFromPolarDeg(60.0, 0.35);
  const auto rec = recorder.recordNearField(pos, chirp_, rng);
  const auto truth = db_.nearFieldAt(pos);

  Pcg32 hwRng(8);
  const auto hwEstimate = hardware_.estimateResponse(35.0, hwRng);
  const ChannelExtractor with(hwEstimate, kFs);
  ChannelExtractorOptions noCompOpts;
  noCompOpts.compensateHardware = false;
  const ChannelExtractor without(hwEstimate, kFs, noCompOpts);

  const auto compensated = with.extract(rec.left, rec.right, chirp_);
  const auto raw = without.extract(rec.left, rec.right, chirp_);
  const double simWith =
      eval::channelSimilarity(compensated.left, truth.left, kFs, 0.5);
  const double simWithout =
      eval::channelSimilarity(raw.left, truth.left, kFs, 0.5);
  EXPECT_GT(simWith, simWithout);
}

TEST_F(ChannelExtractorTest, SilenceYieldsNoTap) {
  const ChannelExtractor extractor({}, kFs);
  std::vector<double> silenceL(4096, 0.0), silenceR(4096, 0.0);
  const auto channel = extractor.extract(silenceL, silenceR, chirp_);
  EXPECT_FALSE(channel.firstTapLeftSec.has_value());
  EXPECT_FALSE(channel.firstTapRightSec.has_value());
}

TEST_F(ChannelExtractorTest, RejectsBadConstruction) {
  EXPECT_THROW(ChannelExtractor({}, 100.0), InvalidArgument);
}

/// Both ears' channels and taps equal, bit for bit.
void expectSameChannel(const BinauralChannel& got,
                       const BinauralChannel& want) {
  EXPECT_EQ(got.left, want.left);
  EXPECT_EQ(got.right, want.right);
  EXPECT_EQ(got.firstTapLeftSec, want.firstTapLeftSec);
  EXPECT_EQ(got.firstTapRightSec, want.firstTapRightSec);
}

TEST_F(ChannelExtractorTest, KeptSourceSpectrumFollowsSourceAndFftSize) {
  // One extractor keeps the compensated source spectrum across calls; a
  // changed source, or an ear whose length picks another FFT size, must
  // still give what a fresh extractor gives.
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 30.0;
  const sim::BinauralRecorder recorder(db_, hardware_, room_, recOpts);
  Pcg32 rng(9);
  const auto rec = recorder.recordNearField(
      geo::pointFromPolarDeg(80.0, 0.35), chirp_, rng);
  Pcg32 hwRng(10);
  const auto hwEstimate = hardware_.estimateResponse(35.0, hwRng);
  const auto otherChirp = dsp::linearChirp(200.0, 16000.0, 720, kFs);
  // A right ear long enough to double its FFT size.
  auto longRight = rec.right;
  longRight.resize(dsp::nextPowerOfTwo(rec.left.size() + chirp_.size()), 0.0);

  const ChannelExtractor reused(hwEstimate, kFs);
  using Signal = const std::vector<double>*;
  for (Signal source :
       {Signal{&chirp_}, Signal{&otherChirp}, Signal{&chirp_}}) {
    for (Signal right : {Signal{&rec.right}, Signal{&longRight}}) {
      const ChannelExtractor fresh(hwEstimate, kFs);
      expectSameChannel(reused.extract(rec.left, *right, *source),
                        fresh.extract(rec.left, *right, *source));
    }
  }
}

TEST_F(ChannelExtractorTest, ExtractIsDeconvolutionByTheCompensatedSource) {
  // Each ear is the recording deconvolved by the source spectrum times the
  // hardware estimate (nearest bin), regularized by that product's floor:
  // every sample the room window keeps has exactly those bits.
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 30.0;
  const sim::BinauralRecorder recorder(db_, hardware_, room_, recOpts);
  Pcg32 rng(12);
  const auto rec = recorder.recordNearField(
      geo::pointFromPolarDeg(60.0, 0.3), chirp_, rng);
  Pcg32 hwRng(13);
  const auto hw = hardware_.estimateResponse(35.0, hwRng);
  const ChannelExtractor extractor(hw, kFs);
  const auto got = extractor.extract(rec.left, rec.right, chirp_);

  const std::size_t n =
      dsp::nextPowerOfTwo(rec.left.size() + chirp_.size());
  auto fx = dsp::fftPlan(n)->rfft(chirp_);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(n);
    const auto rk = static_cast<std::size_t>(std::min<double>(
        std::lround(frac * static_cast<double>(hw.size())),
        static_cast<double>(hw.size() / 2)));
    fx[k] *= hw[rk];
  }
  const auto want = dsp::deconvolveSpectrum(
      rec.left, fx, dsp::regularizationFloor(fx, dsp::kRelativeRegularization),
      kChannelLength);
  ASSERT_EQ(got.left.size(), want.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got.left[i] == 0.0) continue;
    ++kept;
    EXPECT_EQ(got.left[i], want[i]) << "sample " << i;
  }
  EXPECT_GT(kept, 50u);
}

TEST(ChannelExtractorConcurrency, ParallelStopsMatchSerial) {
  // Several threads extract through one extractor whose source spectrum is
  // not yet kept, as the pipeline's per-stop fan-out does.
  const head::HrtfDatabase db(head::Subject{});
  const sim::HardwareModel hardware;
  const sim::RoomModel room;
  const sim::BinauralRecorder recorder(db, hardware, room, {});
  const auto chirp = dsp::linearChirp(100.0, 20000.0, 960, kFs);
  std::vector<sim::BinauralRecording> recs;
  Pcg32 rng(11);
  for (double theta : {10.0, 55.0, 100.0, 145.0})
    recs.push_back(recorder.recordNearField(
        geo::pointFromPolarDeg(theta, 0.3), chirp, rng));
  Pcg32 hwRng(12);
  const auto hwEstimate = hardware.estimateResponse(35.0, hwRng);

  const ChannelExtractor serial(hwEstimate, kFs);
  std::vector<BinauralChannel> want;
  for (const auto& rec : recs)
    want.push_back(serial.extract(rec.left, rec.right, chirp));

  const ChannelExtractor shared(hwEstimate, kFs);
  std::vector<std::vector<BinauralChannel>> got(recs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < recs.size(); ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto& rec = recs[(t + i) % recs.size()];
        got[t].push_back(shared.extract(rec.left, rec.right, chirp));
      }
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < recs.size(); ++t)
    for (std::size_t i = 0; i < recs.size(); ++i)
      expectSameChannel(got[t][i], want[(t + i) % recs.size()]);
}

}  // namespace
}  // namespace uniq::core
