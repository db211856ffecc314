#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "common/random.h"
#include "dsp/fft_plan.h"

namespace uniq::dsp {
namespace {

TEST(FftHelpers, NextPowerOfTwo) {
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(2), 2u);
  EXPECT_EQ(nextPowerOfTwo(3), 4u);
  EXPECT_EQ(nextPowerOfTwo(17), 32u);
  EXPECT_EQ(nextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(nextPowerOfTwo(1025), 2048u);
}

TEST(FftHelpers, IsPowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(4096));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_FALSE(isPowerOfTwo(4097));
}

TEST(Fft, RejectsNonPowerOfTwoInPlace) {
  EXPECT_THROW(FftPlan(3), InvalidArgument);
  EXPECT_THROW(fftPlan(100), InvalidArgument);
  EXPECT_THROW(rfft(std::vector<double>(3)), InvalidArgument);
  EXPECT_THROW(irfft(std::vector<Complex>(3), 6), InvalidArgument);
  std::vector<Complex> data(3);
  EXPECT_THROW(fftPow2ReferenceInPlace(data, false), InvalidArgument);
}

TEST(Fft, RejectsEmpty) {
  EXPECT_THROW(rfft(std::vector<double>()), InvalidArgument);
  EXPECT_THROW(FftPlan(0), InvalidArgument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<double> data(64, 0.0);
  data[0] = 1.0;
  const auto spectrum = rfft(data);
  ASSERT_EQ(spectrum.size(), 33u);
  for (const auto& v : spectrum) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SinusoidConcentratesInOneBin) {
  const std::size_t n = 256;
  const std::size_t bin = 12;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = std::cos(kTwoPi * static_cast<double>(bin * i) /
                       static_cast<double>(n));
  const auto spectrum = rfft(data);
  EXPECT_NEAR(std::abs(spectrum[bin]), static_cast<double>(n) / 2, 1e-9);
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    if (k == bin) continue;
    EXPECT_LT(std::abs(spectrum[k]), 1e-9) << "leakage at bin " << k;
  }
}

/// A signal of n samples transformed at plan size nextPowerOfTwo(n), as
/// every caller transforms arbitrary lengths: rfft reads the samples as a
/// prefix and zero-pads the rest.
class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, ForwardInverseIsIdentity) {
  const std::size_t n = GetParam();
  const auto plan = fftPlan(nextPowerOfTwo(n));
  Pcg32 rng(n * 31 + 1);
  std::vector<double> input(n);
  for (auto& v : input) v = rng.gaussian();
  const auto back = plan->irfft(plan->rfft(input));
  ASSERT_EQ(back.size(), plan->size());
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_NEAR(back[i], i < n ? input[i] : 0.0, 1e-9) << "i=" << i;
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  const std::size_t size = nextPowerOfTwo(n);
  Pcg32 rng(n * 7 + 3);
  std::vector<double> input(n);
  double timeEnergy = 0.0;
  for (auto& v : input) {
    v = rng.gaussian();
    timeEnergy += v * v;
  }
  const auto half = fftPlan(size)->rfft(input);
  // Bins 1 .. size/2 - 1 stand for themselves and their conjugate mirror.
  double freqEnergy = 0.0;
  for (std::size_t k = 0; k < half.size(); ++k) {
    const bool unpaired = k == 0 || k == size / 2;
    freqEnergy += (unpaired ? 1.0 : 2.0) * std::norm(half[k]);
  }
  freqEnergy /= static_cast<double>(size);
  EXPECT_NEAR(freqEnergy, timeEnergy, 1e-6 * std::max(1.0, timeEnergy));
}

INSTANTIATE_TEST_SUITE_P(PowersAndOddSizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024,  // pow2
                                           3, 5, 7, 12, 100, 241, 999));

TEST(Fft, LinearityOfTransform) {
  Pcg32 rng(5);
  const std::size_t n = 128;
  std::vector<double> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
    sum[i] = a[i] + 2.0 * b[i];
  }
  const auto fa = rfft(a);
  const auto fb = rfft(b);
  const auto fsum = rfft(sum);
  for (std::size_t k = 0; k < fsum.size(); ++k) {
    EXPECT_NEAR(std::abs(fsum[k] - (fa[k] + 2.0 * fb[k])), 0.0, 1e-9);
  }
}

TEST(Fft, RealInputGivesConjugateSymmetricSpectrum) {
  // The full complex spectrum of a real signal mirrors rfft's half:
  // X[n-k] = conj(X[k]), with DC and Nyquist real.
  Pcg32 rng(11);
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  std::vector<Complex> full(x.begin(), x.end());
  fftPow2ReferenceInPlace(full, false);
  const auto half = rfft(x);
  EXPECT_EQ(half[0].imag(), 0.0);
  EXPECT_EQ(half[n / 2].imag(), 0.0);
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_NEAR(std::abs(full[n - k] - std::conj(half[k])), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace uniq::dsp
