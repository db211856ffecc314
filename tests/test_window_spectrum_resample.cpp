#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/resample.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"

namespace uniq::dsp {
namespace {

constexpr double kFs = 48000.0;

TEST(Window, HannEndpointsAndPeak) {
  const auto w = makeWindow(WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, AllTypesSymmetric) {
  for (auto type : {WindowType::kHann, WindowType::kHamming,
                    WindowType::kBlackman, WindowType::kTukey}) {
    const auto w = makeWindow(type, 64);
    for (std::size_t i = 0; i < 32; ++i)
      EXPECT_NEAR(w[i], w[63 - i], 1e-12) << "type " << static_cast<int>(type);
  }
}

TEST(Window, RectangularIsAllOnes) {
  const auto w = makeWindow(WindowType::kRectangular, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, TukeyAlphaZeroIsRectangular) {
  const auto w = makeWindow(WindowType::kTukey, 32, 0.0);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, TukeyAlphaOneIsHannLike) {
  const auto t = makeWindow(WindowType::kTukey, 64, 1.0);
  const auto h = makeWindow(WindowType::kHann, 64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(t[i], h[i], 1e-9);
}

TEST(Window, RejectsBadArgs) {
  EXPECT_THROW(makeWindow(WindowType::kHann, 0), InvalidArgument);
  EXPECT_THROW(makeWindow(WindowType::kTukey, 16, 1.5), InvalidArgument);
}

TEST(Spectrum, BinFrequencyRoundTrip) {
  for (double f : {0.0, 100.0, 1000.0, 12345.0, 23999.0}) {
    const std::size_t bin = frequencyToBin(f, 4096, kFs);
    EXPECT_NEAR(binFrequency(bin, 4096, kFs), f, kFs / 4096.0);
  }
}

TEST(Spectrum, FrequencyToBinClamps) {
  EXPECT_EQ(frequencyToBin(-100.0, 64, kFs), 0u);
  EXPECT_EQ(frequencyToBin(1e9, 64, kFs), 63u);
}

TEST(Spectrum, ApplyIdentityResponseKeepsSignal) {
  std::vector<double> sig(256);
  for (std::size_t i = 0; i < sig.size(); ++i)
    sig[i] = std::sin(kTwoPi * 1000.0 * static_cast<double>(i) / kFs);
  std::vector<Complex> identity(1024, Complex(1, 0));
  const auto out = applyFrequencyResponse(sig, identity);
  ASSERT_EQ(out.size(), sig.size());
  for (std::size_t i = 0; i < sig.size(); ++i)
    EXPECT_NEAR(out[i], sig[i], 1e-9);
}

TEST(Spectrum, ApplyScalingResponseScales) {
  std::vector<double> sig(128, 0.0);
  sig[10] = 1.0;
  std::vector<Complex> half(512, Complex(0.5, 0));
  const auto out = applyFrequencyResponse(sig, half);
  EXPECT_NEAR(out[10], 0.5, 1e-9);
}

TEST(Resample, UpsamplePreservesSinusoid) {
  std::vector<double> sig(480);
  for (std::size_t i = 0; i < sig.size(); ++i)
    sig[i] = std::sin(kTwoPi * 1000.0 * static_cast<double>(i) / kFs);
  const auto up = resample(sig, kFs, 2 * kFs);
  ASSERT_EQ(up.size(), 960u);
  // Compare interior against the analytically expected samples.
  double maxErr = 0.0;
  for (std::size_t i = 100; i + 100 < up.size(); ++i) {
    const double expected =
        std::sin(kTwoPi * 1000.0 * static_cast<double>(i) / (2 * kFs));
    maxErr = std::max(maxErr, std::fabs(up[i] - expected));
  }
  EXPECT_LT(maxErr, 0.01);
}

TEST(Resample, DownsampleRemovesAliasedTone) {
  // 20 kHz tone cannot survive a downsample to 16 kHz (Nyquist 8 kHz).
  std::vector<double> sig(4800);
  for (std::size_t i = 0; i < sig.size(); ++i)
    sig[i] = std::sin(kTwoPi * 20000.0 * static_cast<double>(i) / kFs);
  const auto down = resample(sig, kFs, 16000.0);
  double e = 0.0;
  for (std::size_t i = 100; i + 100 < down.size(); ++i) e += down[i] * down[i];
  EXPECT_LT(e / static_cast<double>(down.size() - 200), 0.01);
}

TEST(Resample, RejectsBadArgs) {
  std::vector<double> sig(10, 1.0);
  std::vector<double> empty;
  EXPECT_THROW(resample(empty, kFs, kFs), InvalidArgument);
  EXPECT_THROW(resample(sig, 0.0, kFs), InvalidArgument);
  EXPECT_THROW(resample(sig, kFs, kFs, 1), InvalidArgument);
}

}  // namespace
}  // namespace uniq::dsp
