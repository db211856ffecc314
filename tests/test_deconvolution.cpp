#include "dsp/deconvolution.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/random.h"
#include "dsp/convolution.h"
#include "dsp/fft_plan.h"
#include "dsp/peak_picking.h"
#include "dsp/signal_generators.h"

namespace uniq::dsp {
namespace {

TEST(SpectralDivide, IdentityWhenDividingBySelf) {
  Pcg32 rng(1);
  std::vector<Complex> x(64);
  for (auto& v : x) v = Complex(rng.gaussian() + 2.0, rng.gaussian());
  const auto out = regularizedSpectralDivide(x, x, 1e-9);
  for (const auto& v : out) EXPECT_NEAR(std::abs(v - Complex(1, 0)), 0.0, 1e-4);
}

TEST(SpectralDivide, RejectsBadArgs) {
  std::vector<Complex> a(8), b(4);
  EXPECT_THROW(regularizedSpectralDivide(a, b, 1e-3), InvalidArgument);
  std::vector<Complex> c(8);
  EXPECT_THROW(regularizedSpectralDivide(a, c, 0.0), InvalidArgument);
}

TEST(Deconvolve, RecoversSparseChannelFromChirp) {
  const double fs = 48000.0;
  const auto chirp = linearChirp(100.0, 20000.0, 960, fs);
  // Channel: taps at 30 and 55 samples.
  std::vector<double> channel(128, 0.0);
  channel[30] = 1.0;
  channel[55] = -0.5;
  const auto received = convolve(chirp, channel);
  auto estimated = deconvolve(received, chirp);
  ASSERT_EQ(estimated.size(), received.size());
  estimated.resize(128);
  // The chirp only probes 100 Hz - 20 kHz, so the regularized estimate
  // loses the out-of-band part of each tap; the relative tap structure is
  // preserved accurately.
  EXPECT_NEAR(estimated[30], 1.0, 0.2);
  EXPECT_NEAR(estimated[55], -0.5, 0.12);
  EXPECT_NEAR(estimated[55] / estimated[30], -0.5, 0.02);
  // Everything else small.
  double offPeak = 0.0;
  for (std::size_t i = 0; i < estimated.size(); ++i) {
    if (i >= 28 && i <= 32) continue;
    if (i >= 53 && i <= 57) continue;
    offPeak = std::max(offPeak, std::fabs(estimated[i]));
  }
  // Regularization leaves small sidelobes around sharp taps.
  EXPECT_LT(offPeak, 0.15);
}

TEST(Deconvolve, StableUnderNoise) {
  const double fs = 48000.0;
  Pcg32 rng(9);
  const auto chirp = linearChirp(100.0, 20000.0, 960, fs);
  std::vector<double> channel(64, 0.0);
  channel[20] = 1.0;
  auto received = convolve(chirp, channel);
  addNoiseSnrDb(received, 20.0, rng);
  auto estimated = deconvolve(received, chirp);
  estimated.resize(64);
  const auto tap = findFirstTap(estimated);
  ASSERT_TRUE(tap.has_value());
  EXPECT_NEAR(tap->position, 20.0, 0.5);
}

TEST(Deconvolve, FractionalTapPositionRecoveredSubSample) {
  const double fs = 48000.0;
  const auto chirp = linearChirp(100.0, 20000.0, 2048, fs);
  std::vector<double> channel(96, 0.0);
  // A fractional tap at 33.37 samples.
  for (int k = -8; k <= 8; ++k) {
    const double x = static_cast<double>(k) - 0.37;
    const double sinc = std::fabs(x) < 1e-12 ? 1.0
                                             : std::sin(3.14159265358979 * x) /
                                                   (3.14159265358979 * x);
    channel[static_cast<std::size_t>(33 + k)] += sinc;
  }
  const auto received = convolve(chirp, channel);
  auto estimated = deconvolve(received, chirp);
  estimated.resize(96);
  const auto tap = findFirstTap(estimated);
  ASSERT_TRUE(tap.has_value());
  EXPECT_NEAR(tap->position, 33.37, 0.15);
}

TEST(Deconvolve, RejectsEmpty) {
  std::vector<double> a{1.0};
  std::vector<double> empty;
  EXPECT_THROW(deconvolve(empty, a), InvalidArgument);
  EXPECT_THROW(deconvolve(a, empty), InvalidArgument);
}

TEST(Deconvolve, ShortInputEqualsExplicitlyPaddedInput) {
  // Each case has one input short enough that rfft skips its zero stages,
  // and pads it with zeros to where the transform size (2048) is unchanged.
  const double fs = 48000.0;
  Pcg32 rng(5);
  const auto chirp = linearChirp(100.0, 20000.0, 960, fs);
  const auto burst = whiteNoise(64, rng);
  const auto shortRecording = whiteNoise(100, rng);
  const auto longRecording = whiteNoise(1500, rng);
  const auto padded = [](std::vector<double> x, std::size_t len) {
    x.resize(len, 0.0);
    return x;
  };
  // The padded recording's response is longer; its prefix must match.
  const auto shortReceived = deconvolve(shortRecording, chirp);
  const auto paddedReceived =
      deconvolve(padded(shortRecording, 2048 - 960), chirp);
  const auto shortSource = deconvolve(longRecording, burst);
  const auto paddedSource =
      deconvolve(longRecording, padded(burst, 2048 - 1500));
  ASSERT_EQ(shortReceived.size(), shortRecording.size());
  ASSERT_EQ(shortSource.size(), paddedSource.size());
  for (std::size_t i = 0; i < shortReceived.size(); ++i)
    EXPECT_EQ(shortReceived[i], paddedReceived[i]) << "i=" << i;
  for (std::size_t i = 0; i < shortSource.size(); ++i)
    EXPECT_EQ(shortSource[i], paddedSource[i]) << "i=" << i;
}

TEST(Deconvolve, SpectrumFormMatchesDeconvolveBitwise) {
  // deconvolve() is the source transform, its floor and deconvolveSpectrum;
  // a caller holding the transform and floor gets the same bits.
  Pcg32 rng(8);
  const auto chirp = linearChirp(200.0, 9000.0, 900, 48000.0);
  const auto received = whiteNoise(2000, rng);
  const auto want = deconvolve(received, chirp);
  ASSERT_EQ(want.size(), received.size());
  const std::size_t n = nextPowerOfTwo(received.size() + chirp.size());
  const auto fx = fftPlan(n)->rfft(chirp);
  const double floor = regularizationFloor(fx, kRelativeRegularization);
  for (const std::size_t length : {64u, 512u, 2000u}) {
    const auto got = deconvolveSpectrum(received, fx, floor, length);
    ASSERT_EQ(got.size(), length);
    for (std::size_t i = 0; i < length; ++i)
      ASSERT_EQ(got[i], want[i]) << "length " << length << " sample " << i;
  }
}

}  // namespace
}  // namespace uniq::dsp
