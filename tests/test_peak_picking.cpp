#include "dsp/peak_picking.h"

#include <gtest/gtest.h>

#include "dsp/fractional_delay.h"

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

}  // namespace
}  // namespace uniq::dsp
