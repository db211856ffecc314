#include "dsp/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/random.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/fractional_delay.h"
#include "dsp/signal_generators.h"

namespace uniq::dsp {
namespace {

std::vector<double> naiveXcorr(const std::vector<double>& a,
                               const std::vector<double>& b) {
  // c[lag] = sum_t a[t] * b[t + lag], lag in [-(b-1), a-1]
  const long nb = static_cast<long>(b.size());
  const long na = static_cast<long>(a.size());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (long lag = -(nb - 1); lag <= na - 1; ++lag) {
    double acc = 0.0;
    for (long t = 0; t < na; ++t) {
      const long bi = t + lag;
      if (bi >= 0 && bi < nb) acc += a[t] * b[bi];
    }
    out[static_cast<std::size_t>(lag + nb - 1)] = acc;
  }
  return out;
}

TEST(CrossCorrelate, MatchesNaiveReference) {
  Pcg32 rng(1);
  for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{8, 8},
                        {16, 5},
                        {5, 16},
                        {33, 20}}) {
    std::vector<double> a(na), b(nb);
    for (auto& v : a) v = rng.gaussian();
    for (auto& v : b) v = rng.gaussian();
    const auto fast = crossCorrelate(a, b);
    const auto slow = naiveXcorr(a, b);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      EXPECT_NEAR(fast[i], slow[i], 1e-8) << "at " << i;
  }
}

TEST(CrossCorrelate, RejectsEmpty) {
  std::vector<double> a{1.0};
  std::vector<double> empty;
  EXPECT_THROW(crossCorrelate(a, empty), InvalidArgument);
}

class DelayRecovery : public ::testing::TestWithParam<double> {};

TEST_P(DelayRecovery, NormalizedPeakFindsFractionalDelay) {
  const double delay = GetParam();
  // Band-limited test signal: fractional shifting cannot represent
  // half-sample offsets of content at Nyquist, so full-band noise would
  // legitimately decorrelate.
  auto a = linearChirp(200.0, 18000.0, 512, 48000.0);
  // b is a delayed by `delay` samples.
  std::vector<double> padded(a.size() + 64, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) padded[i] = a[i];
  const auto b = fractionalShift(padded, delay);
  // c[lag] = sum_t padded[t]*b[t+lag] peaks at lag = +delay (b lags padded).
  // The parabolic peak refinement has a known small bias on a sinc-shaped
  // correlation mainlobe, hence the 0.3-sample tolerance.
  const auto peak = normalizedCorrelationPeak(padded, b);
  EXPECT_NEAR(peak.lag, delay, 0.3);
  EXPECT_GT(peak.value, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Lags, DelayRecovery,
                         ::testing::Values(0.0, 1.0, 2.5, 7.25, 13.75, 31.5));

TEST(NormalizedPeak, IdenticalSignalsGiveUnity) {
  Pcg32 rng(3);
  const auto a = whiteNoise(256, rng);
  const auto peak = normalizedCorrelationPeak(a, a);
  EXPECT_NEAR(peak.value, 1.0, 1e-6);
  EXPECT_NEAR(peak.lag, 0.0, 1e-6);
}

TEST(NormalizedPeak, SilenceGivesZero) {
  std::vector<double> a(64, 0.0);
  std::vector<double> b(64, 1.0);
  const auto peak = normalizedCorrelationPeak(a, b);
  EXPECT_DOUBLE_EQ(peak.value, 0.0);
}

TEST(NormalizedPeak, LagRestrictionExcludesTrueLag) {
  Pcg32 rng(4);
  const auto a = whiteNoise(256, rng);
  std::vector<double> b(a.size() + 40, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) b[i + 20] = a[i];
  const auto unrestricted = normalizedCorrelationPeak(a, b);
  EXPECT_NEAR(unrestricted.lag, 20.0, 0.2);
  const auto restricted = normalizedCorrelationPeak(a, b, 5.0);
  EXPECT_LE(std::fabs(restricted.lag), 5.0);
  EXPECT_LT(restricted.value, unrestricted.value);
}

// --- boundedNormalizedCorrelationPeak ----------------------------------

/// The direct bounded-lag peak agrees with the FFT path in lag and value.
void expectBoundedMatchesFft(const std::vector<double>& a,
                             const std::vector<double>& b, double maxLag) {
  SCOPED_TRACE(::testing::Message() << "maxLag " << maxLag);
  const auto want = normalizedCorrelationPeak(a, b, maxLag);
  const auto got = boundedNormalizedCorrelationPeak(a, b, l2Norm(b), maxLag);
  EXPECT_NEAR(got.lag, want.lag, 1e-12);
  EXPECT_NEAR(got.value, want.value, 1e-12);
}

TEST(BoundedCorrelationPeak, MatchesFftPathOnRandomSignals) {
  Pcg32 rng(11);
  for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{256, 256},
                        {200, 256},
                        {256, 180},
                        {31, 17},
                        {5, 64}}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> a(na), b(nb);
      for (auto& v : a) v = rng.gaussian();
      for (auto& v : b) v = rng.gaussian();
      SCOPED_TRACE(::testing::Message() << na << "x" << nb);
      for (const double maxLag : {1.0, 2.5, 8.0, 8.75, 20.0})
        expectBoundedMatchesFft(a, b, maxLag);
    }
  }
}

TEST(BoundedCorrelationPeak, MatchesFftPathOnPreAlignedHrirLikeSignals) {
  // Decaying tap trains aligned to a common first tap, as the known-source
  // AoA compares them: the measured channel is the template moved by a
  // residual sub-window shift plus noise.
  Pcg32 rng(12);
  std::vector<double> tmpl(256, 0.0);
  double amp = 1.0;
  for (double pos = 32.0; pos < 200.0; pos += rng.uniform(7.3, 12.3)) {
    const double sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    addFractionalTap(tmpl, pos, sign * amp);
    amp *= 0.8;
  }
  for (const double shift : {-3.3, -0.5, 0.0, 0.25, 2.7, 7.9}) {
    auto measured = fractionalShift(tmpl, shift);
    for (auto& v : measured) v += 0.01 * rng.gaussian();
    SCOPED_TRACE(::testing::Message() << "shift " << shift);
    for (const double maxLag : {8.0, 3.5})
      expectBoundedMatchesFft(measured, tmpl, maxLag);
  }
}

TEST(BoundedCorrelationPeak, PeakOnWindowEdgeRefinesWithOutsideNeighbour) {
  // A broad pulse has a correlation rising monotonically toward the true
  // lag (+-12), which lies outside the window: the windowed argmax sits on
  // +-maxLag and the parabolic refine reads the lag just past it.
  std::vector<double> a(256);
  for (std::size_t t = 0; t < a.size(); ++t)
    a[t] = std::exp(-square((static_cast<double>(t) - 128.0) / 20.0));
  for (const double delay : {12.0, -12.0}) {
    const auto b = fractionalShift(a, delay);
    SCOPED_TRACE(::testing::Message() << "delay " << delay);
    for (const double maxLag : {8.0, 8.5}) {
      const auto want = normalizedCorrelationPeak(a, b, maxLag);
      ASSERT_NEAR(std::fabs(want.lag), 8.0, 0.6);
      ASSERT_NE(std::fabs(want.lag), 8.0) << "edge peak was not refined";
      expectBoundedMatchesFft(a, b, maxLag);
    }
  }
}

TEST(BoundedCorrelationPeak, MaxLagBeyondSignalLengthCoversEveryLag) {
  Pcg32 rng(13);
  std::vector<double> a(16), b(24);
  for (auto& v : a) v = rng.gaussian();
  for (auto& v : b) v = rng.gaussian();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double maxLag : {23.0, 40.0, 1e6, inf})
    expectBoundedMatchesFft(a, b, maxLag);
  // A window that covers every lag agrees with the unrestricted search.
  const auto all = normalizedCorrelationPeak(a, b);
  const auto bounded = boundedNormalizedCorrelationPeak(a, b, l2Norm(b), 1e6);
  EXPECT_NEAR(bounded.lag, all.lag, 1e-12);
  EXPECT_NEAR(bounded.value, all.value, 1e-12);

  // Peak on the first lag of crossCorrelate's layout: no left neighbour,
  // so neither path refines it.
  std::vector<double> last(8, 0.0), first(8, 0.0);
  last.back() = 1.0;
  first.front() = 1.0;
  const auto edge =
      boundedNormalizedCorrelationPeak(last, first, l2Norm(first), 50.0);
  EXPECT_EQ(edge.lag, -7.0);
  EXPECT_EQ(edge.value, 1.0);
  expectBoundedMatchesFft(last, first, 50.0);
}

/// A silent operand gives the zero peak on both paths.
void expectSilentPeak(const std::vector<double>& a,
                      const std::vector<double>& b) {
  const auto peak = boundedNormalizedCorrelationPeak(a, b, l2Norm(b), 8.0);
  EXPECT_EQ(peak.lag, 0.0);
  EXPECT_EQ(peak.value, 0.0);
  expectBoundedMatchesFft(a, b, 8.0);
}

TEST(BoundedCorrelationPeak, SilenceGivesZeroAndBadWindowThrows) {
  const std::vector<double> zeros(64, 0.0);
  const std::vector<double> ones(64, 1.0);
  expectSilentPeak(zeros, ones);
  expectSilentPeak(ones, zeros);
  expectSilentPeak({}, ones);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.0, nan})
    EXPECT_THROW(boundedNormalizedCorrelationPeak(ones, ones, 8.0, bad),
                 InvalidArgument);
}

class GccPhatDelay : public ::testing::TestWithParam<double> {};

TEST_P(GccPhatDelay, RecoversDelayOnNoisySignals) {
  const double delay = GetParam();
  Pcg32 rng(7);
  auto a = whiteNoise(2048, rng);
  std::vector<double> padded(a.size() + 64, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) padded[i] = a[i];
  auto b = fractionalShift(padded, delay);
  addNoiseSnrDb(b, 15.0, rng);
  // b lags a by `delay`: estimateDelayGccPhat(a, b) returns that lag.
  const double est = estimateDelayGccPhat(a, b, 50.0);
  EXPECT_NEAR(est, delay, 0.35);
}

INSTANTIATE_TEST_SUITE_P(Lags, GccPhatDelay,
                         ::testing::Values(0.0, 3.0, 10.5, 24.25, -0.0));

TEST(GccPhat, ShortInputEqualsExplicitlyPaddedInput) {
  // The short side is transformed unpadded (rfft skips its zero stages);
  // padding it with zeros up to the same FFT size must change no lag in the
  // short input's support. Both orientations: short a, then short b.
  Pcg32 rng(11);
  const auto longSig = whiteNoise(600, rng);
  const auto shortSig = whiteNoise(40, rng);
  std::vector<double> shortPadded(shortSig);
  shortPadded.resize(425, 0.0);  // 600 + 425 - 1 == 1024: same FFT size
  for (const bool shortFirst : {true, false}) {
    const auto& a = shortFirst ? shortSig : longSig;
    const auto& b = shortFirst ? longSig : shortSig;
    const auto& pa = shortFirst ? shortPadded : longSig;
    const auto& pb = shortFirst ? longSig : shortPadded;
    const auto got = gccPhat(a, b);
    const auto want = gccPhat(pa, pb);
    // gccPhat lays out lags [-(b-1), a-1] and zeroes those outside
    // [-(a-1), b-1], so the short input's size bounds the compared lags.
    const long reach = static_cast<long>(shortSig.size()) - 1;
    const long lb = static_cast<long>(b.size());
    const long lpb = static_cast<long>(pb.size());
    for (long lag = -reach; lag <= reach; ++lag)
      EXPECT_EQ(got[static_cast<std::size_t>(lag + lb - 1)],
                want[static_cast<std::size_t>(lag + lpb - 1)])
          << "lag " << lag << (shortFirst ? " (short a)" : " (short b)");
  }
}

TEST(GccPhat, SpectraStepsReproduceTheOneCallForm) {
  // gccPhatSpectra is the two transforms at gccPhatSize, and
  // gccPhatFromSpectra the PHAT weighting, inverse transform and lag
  // unwrap: composed, or spelled out here, they give gccPhat's bits.
  Pcg32 rng(12);
  for (const auto& [na, nb] : std::vector<std::pair<std::size_t, std::size_t>>{
           {600, 40}, {40, 600}, {1000, 1000}, {4800, 4810}, {1, 1}}) {
    const auto a = whiteNoise(na, rng);
    const auto b = whiteNoise(nb, rng);
    const auto want = gccPhat(a, b);

    const std::size_t n = gccPhatSize(na, nb);
    ASSERT_EQ(n, nextPowerOfTwo(na + nb - 1));
    const auto plan = fftPlan(n);
    std::vector<Complex> fa(n / 2 + 1), fb(n / 2 + 1);
    gccPhatSpectra(a, b, fa, fb);
    const auto ra = plan->rfft(a);
    const auto rb = plan->rfft(b);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      ASSERT_EQ(fa[k], ra[k]) << "bin " << k;
      ASSERT_EQ(fb[k], rb[k]) << "bin " << k;
    }

    // PHAT weighting: the cross spectrum over its modulus, both spelled
    // out (no std::complex operator* or std::abs).
    auto cross = ra;
    for (std::size_t k = 0; k < cross.size(); ++k) {
      const double ar = ra[k].real(), ai = ra[k].imag();
      const double br = rb[k].real(), bi = rb[k].imag();
      const double re = ar * br + ai * bi;
      const double im = ai * br - ar * bi;
      const double mag = std::sqrt(re * re + im * im);
      cross[k] = mag > 1e-15 ? Complex(re / mag, im / mag) : Complex(0, 0);
    }
    const auto r = plan->irfft(cross);
    // Index k holds lag k - (nb - 1); lags outside [-(na - 1), nb - 1]
    // are zero, lag <= 0 reads r[-lag] and lag > 0 wraps to r[n - lag].
    std::vector<double> spelled(na + nb - 1, 0.0);
    for (std::size_t k = 0; k < spelled.size(); ++k) {
      const long lag = static_cast<long>(k) - static_cast<long>(nb - 1);
      if (lag < -(static_cast<long>(na) - 1) ||
          lag > static_cast<long>(nb) - 1)
        continue;
      spelled[k] = lag <= 0 ? r[static_cast<std::size_t>(-lag)]
                            : r[n - static_cast<std::size_t>(lag)];
    }

    const auto composed = gccPhatFromSpectra(fa, fb, na, nb);
    ASSERT_EQ(composed.size(), want.size());
    ASSERT_EQ(spelled.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(composed[k], want[k]) << na << "/" << nb << " index " << k;
      EXPECT_EQ(spelled[k], want[k]) << na << "/" << nb << " index " << k;
    }
  }
}

}  // namespace
}  // namespace uniq::dsp
