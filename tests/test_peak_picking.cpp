#include "dsp/peak_picking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "dsp/fractional_delay.h"
#include "dsp/signal_generators.h"

namespace uniq::dsp {
namespace {

TEST(FindTaps, EmptyAndTinyInputs) {
  std::vector<double> empty;
  EXPECT_TRUE(findTaps(empty).empty());
  std::vector<double> two{1.0, 2.0};
  EXPECT_TRUE(findTaps(two).empty());
  EXPECT_FALSE(findFirstTap(two).has_value());
}

TEST(FindTaps, SilenceHasNoTaps) {
  std::vector<double> h(100, 0.0);
  EXPECT_TRUE(findTaps(h).empty());
}

TEST(FindTaps, SingleIntegerTap) {
  std::vector<double> h(64, 0.0);
  h[20] = 1.0;
  const auto taps = findTaps(h);
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_NEAR(taps[0].position, 20.0, 1e-9);
  EXPECT_NEAR(taps[0].amplitude, 1.0, 1e-9);
}

class FractionalTapPosition : public ::testing::TestWithParam<double> {};

TEST_P(FractionalTapPosition, SubSampleAccuracy) {
  const double pos = GetParam();
  std::vector<double> h(128, 0.0);
  addFractionalTap(h, pos, 1.0, 16);
  // Parabolic refinement of a |sinc| mainlobe carries a small systematic
  // bias (worst near +/-0.25 fractional offsets).
  const auto tap = findFirstTap(h);
  ASSERT_TRUE(tap.has_value());
  EXPECT_NEAR(tap->position, pos, 0.25) << "true position " << pos;
}

INSTANTIATE_TEST_SUITE_P(Positions, FractionalTapPosition,
                         ::testing::Values(30.0, 30.25, 30.5, 41.75, 63.33,
                                           77.9));

TEST(FindTaps, NegativeTapDetectedByMagnitude) {
  std::vector<double> h(64, 0.0);
  h[15] = -0.8;
  const auto tap = findFirstTap(h);
  ASSERT_TRUE(tap.has_value());
  EXPECT_NEAR(tap->position, 15.0, 1e-9);
  EXPECT_NEAR(tap->amplitude, 0.8, 1e-9);
}

TEST(FindTaps, ThresholdSuppressesSmallPeaks) {
  std::vector<double> h(64, 0.0);
  h[10] = 0.2;   // below 0.35 * 1.0
  h[30] = 1.0;
  const auto first = findFirstTap(h);
  ASSERT_TRUE(first.has_value());
  EXPECT_NEAR(first->position, 30.0, 1e-9);
  // Lower the threshold and the early tap becomes the first.
  const auto lowered = findFirstTap(h, 0.1);
  ASSERT_TRUE(lowered.has_value());
  EXPECT_NEAR(lowered->position, 10.0, 1e-9);
}

TEST(FindTaps, MultipleTapsSortedByPosition) {
  std::vector<double> h(128, 0.0);
  h[20] = 0.6;
  h[50] = 1.0;
  h[80] = 0.5;
  const auto taps = findTaps(h);
  ASSERT_EQ(taps.size(), 3u);
  EXPECT_LT(taps[0].position, taps[1].position);
  EXPECT_LT(taps[1].position, taps[2].position);
}

TEST(FindTaps, PlateauHandled) {
  // Two equal adjacent samples: should produce exactly one tap (the
  // earlier sample wins via >=, > comparison pair).
  std::vector<double> h(32, 0.0);
  h[10] = 1.0;
  h[11] = 1.0;
  h[12] = 0.2;
  const auto taps = findTaps(h);
  ASSERT_EQ(taps.size(), 1u);
}

/// findTaps as it was written before it stopped copying |h|: one
/// magnitude vector, one max over it, then the local-maximum scan.
std::vector<Tap> findTapsReference(std::span<const double> h,
                                   double relativeThreshold) {
  std::vector<Tap> taps;
  if (h.size() < 3) return taps;
  std::vector<double> mag(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) mag[i] = std::fabs(h[i]);
  double peak = 0.0;
  for (const double m : mag) peak = std::max(peak, m);
  if (peak <= 0.0) return taps;
  const double threshold = relativeThreshold * peak;
  for (std::size_t i = 1; i + 1 < mag.size(); ++i) {
    if (mag[i] >= threshold && mag[i] >= mag[i - 1] && mag[i] > mag[i + 1]) {
      const double ym1 = mag[i - 1], y0 = mag[i], yp1 = mag[i + 1];
      const double denom = ym1 - 2 * y0 + yp1;
      double d = 0.0;
      if (std::fabs(denom) > 1e-30) d = 0.5 * (ym1 - yp1) / denom;
      d = std::clamp(d, -0.5, 0.5);
      taps.push_back({static_cast<double>(i) + d,
                      y0 - 0.25 * (ym1 - yp1) * d});
    }
  }
  return taps;
}

void expectSameTaps(const std::vector<double>& h, double threshold) {
  const auto want = findTapsReference(h, threshold);
  const auto got = findTaps(h, threshold);
  ASSERT_EQ(got.size(), want.size()) << "length " << h.size();
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(std::memcmp(&got[t], &want[t], sizeof(Tap)), 0)
        << "tap " << t << " of " << got.size() << ", length " << h.size();
  }
  const auto first = findFirstTap(h, threshold);
  ASSERT_EQ(first.has_value(), !want.empty());
  if (first) {
    EXPECT_EQ(std::memcmp(&*first, &want.front(), sizeof(Tap)), 0);
  }
}

TEST(FindTaps, MatchesCopyingReferenceBitForBit) {
  Pcg32 rng(29);
  // Random input at every length around the 4-wide peak scan's tails.
  for (std::size_t len = 0; len <= 70; ++len) {
    const auto h = whiteNoise(len, rng, 1.0);
    for (const double threshold : {0.0, 0.35, 0.45, 1.0})
      expectSameTaps(h, threshold);
  }
  const auto noise = whiteNoise(16061, rng, 0.25);
  expectSameTaps(noise, kFirstTapRelativeThreshold);
  expectSameTaps(noise, 0.45);

  // Plateaus and ties: equal neighbours, +/- pairs of one magnitude, a
  // flat top at the peak, signed zeros.
  std::vector<double> ties(64, 0.0);
  ties[5] = ties[6] = 0.8;
  ties[10] = 0.8;
  ties[11] = -0.8;
  ties[20] = ties[21] = ties[22] = -1.0;
  ties[30] = 1.0;
  ties[40] = -0.0;
  ties[50] = 0.5;
  ties[51] = 0.5;
  ties[52] = 0.25;
  for (const double threshold : {0.0, 0.35, 0.8, 1.0})
    expectSameTaps(ties, threshold);

  // All-zero input (both signs) has no taps; so has a NaN-only one.
  expectSameTaps(std::vector<double>(33, 0.0), 0.35);
  expectSameTaps(std::vector<double>(33, -0.0), 0.35);
  expectSameTaps(
      std::vector<double>(9, std::numeric_limits<double>::quiet_NaN()), 0.35);
  // A NaN beside the peak is skipped by the max in any position.
  auto withNan = whiteNoise(41, rng, 1.0);
  withNan[17] = std::numeric_limits<double>::quiet_NaN();
  expectSameTaps(withNan, 0.35);
}

}  // namespace
}  // namespace uniq::dsp
