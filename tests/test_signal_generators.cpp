#include "dsp/signal_generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/fft_plan.h"
#include "dsp/spectrum.h"

namespace uniq::dsp {
namespace {

constexpr double kFs = 48000.0;

/// Full spectrum of `x` zero-padded to the next power of two, the layout
/// bandAverageMagnitude reads: rfft's half spectrum plus its conjugate
/// mirror.
std::vector<Complex> paddedSpectrum(const std::vector<double>& x) {
  const std::size_t n = nextPowerOfTwo(x.size());
  const auto half = fftPlan(n)->rfft(x);
  std::vector<Complex> full(n);
  for (std::size_t k = 0; k < half.size(); ++k) full[k] = half[k];
  for (std::size_t k = 1; k < n - n / 2; ++k) full[n - k] = std::conj(half[k]);
  return full;
}

/// Average magnitude (linear) of a full `spectrum` over [fLo, fHi] Hz.
double bandAverageMagnitude(const std::vector<Complex>& spectrum,
                            double sampleRate, double fLo, double fHi) {
  const std::size_t n = spectrum.size();
  const std::size_t bLo = frequencyToBin(fLo, n, sampleRate);
  const std::size_t bHi = std::min(frequencyToBin(fHi, n, sampleRate), n / 2);
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t b = bLo; b <= bHi; ++b) {
    acc += std::abs(spectrum[b]);
    ++count;
  }
  return count > 0 ? acc / static_cast<double>(count) : 0.0;
}

TEST(Chirp, LengthAndAmplitudeBounds) {
  const auto c = linearChirp(100.0, 20000.0, 960, kFs, 0.8);
  EXPECT_EQ(c.size(), 960u);
  for (double v : c) EXPECT_LE(std::fabs(v), 0.8 + 1e-12);
}

TEST(Chirp, StartsAndEndsFaded) {
  const auto c = linearChirp(100.0, 20000.0, 960, kFs);
  EXPECT_LT(std::fabs(c.front()), 1e-6);
  EXPECT_LT(std::fabs(c.back()), 1e-6);
}

TEST(Chirp, EnergySpreadAcrossBand) {
  const auto c = linearChirp(1000.0, 10000.0, 4096, kFs);
  const auto spec = paddedSpectrum(c);
  const double inBand = bandAverageMagnitude(spec, kFs, 2000.0, 9000.0);
  const double below = bandAverageMagnitude(spec, kFs, 50.0, 500.0);
  const double above = bandAverageMagnitude(spec, kFs, 15000.0, 22000.0);
  EXPECT_GT(inBand, 5.0 * below);
  EXPECT_GT(inBand, 5.0 * above);
}

TEST(Chirp, RejectsBadParameters) {
  EXPECT_THROW(linearChirp(100.0, 1000.0, 1, kFs), InvalidArgument);
  EXPECT_THROW(linearChirp(100.0, -5.0, 100, kFs), InvalidArgument);
}

TEST(WhiteNoise, StatisticsRoughlyGaussian) {
  Pcg32 rng(3);
  const auto n = whiteNoise(20000, rng, 2.0);
  double mean = 0.0;
  for (double v : n) mean += v;
  mean /= static_cast<double>(n.size());
  double var = 0.0;
  for (double v : n) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(SpeechLike, LowFrequencyDominated) {
  Pcg32 rng(4);
  const auto s = speechLike(24000, kFs, rng);
  EXPECT_EQ(s.size(), 24000u);
  EXPECT_GT(rms(s), 0.1);
  const auto spec = paddedSpectrum(s);
  const double low = bandAverageMagnitude(spec, kFs, 100.0, 3500.0);
  const double high = bandAverageMagnitude(spec, kFs, 8000.0, 20000.0);
  EXPECT_GT(low, 10.0 * high);
}

TEST(MusicLike, HasEnergyAndNoteStructure) {
  Pcg32 rng(5);
  const auto m = musicLike(24000, kFs, rng);
  EXPECT_EQ(m.size(), 24000u);
  EXPECT_GT(rms(m), 0.1);
}

TEST(MusicLike, DeterministicForSameSeed) {
  Pcg32 rngA(6), rngB(6);
  const auto a = musicLike(4800, kFs, rngA);
  const auto b = musicLike(4800, kFs, rngB);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(NormalizeRms, HitsTarget) {
  std::vector<double> s{1.0, -1.0, 1.0, -1.0};
  normalizeRms(s, 0.5);
  EXPECT_NEAR(rms(s), 0.5, 1e-12);
}

TEST(NormalizeRms, SilenceIsNoOp) {
  std::vector<double> s(16, 0.0);
  normalizeRms(s, 1.0);
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AddNoise, AchievesRequestedSnr) {
  Pcg32 rng(8);
  std::vector<double> clean(48000);
  for (std::size_t i = 0; i < clean.size(); ++i)
    clean[i] = std::sin(kTwoPi * 440.0 * static_cast<double>(i) / kFs);
  auto noisy = clean;
  addNoiseSnrDb(noisy, 20.0, rng);
  double noiseEnergy = 0.0, signalEnergy = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    noiseEnergy += (noisy[i] - clean[i]) * (noisy[i] - clean[i]);
    signalEnergy += clean[i] * clean[i];
  }
  const double snr = 10.0 * std::log10(signalEnergy / noiseEnergy);
  EXPECT_NEAR(snr, 20.0, 0.5);
}

}  // namespace
}  // namespace uniq::dsp
