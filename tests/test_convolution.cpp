#include "dsp/convolution.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "test_util.h"

namespace uniq::dsp {
namespace {

std::vector<double> randomSignal(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

TEST(Convolution, RejectsEmptyInputs) {
  std::vector<double> a{1.0};
  std::vector<double> empty;
  EXPECT_THROW(convolveDirect(a, empty), InvalidArgument);
  EXPECT_THROW(convolveFft(empty, a), InvalidArgument);
}

TEST(Convolution, KnownSmallExample) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, -1};
  const auto c = convolveDirect(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[0], 1);
  EXPECT_DOUBLE_EQ(c[1], 1);
  EXPECT_DOUBLE_EQ(c[2], 1);
  EXPECT_DOUBLE_EQ(c[3], -3);
}

TEST(Convolution, IdentityKernel) {
  const auto a = randomSignal(100, 1);
  const std::vector<double> delta{1.0};
  const auto c = convolveDirect(a, delta);
  EXPECT_LT(uniq::test::maxAbsDiff(a, c), 1e-12);
}

TEST(Convolution, DelayKernelShifts) {
  const auto a = randomSignal(50, 2);
  std::vector<double> kernel(5, 0.0);
  kernel[3] = 1.0;
  const auto c = convolveDirect(a, kernel);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(c[i + 3], a[i]);
}

TEST(Convolution, Commutative) {
  const auto a = randomSignal(37, 3);
  const auto b = randomSignal(13, 4);
  EXPECT_LT(uniq::test::maxAbsDiff(convolveDirect(a, b), convolveDirect(b, a)),
            1e-12);
}

struct ConvSizes {
  std::size_t signal;
  std::size_t kernel;
};

class ConvolutionEquivalence : public ::testing::TestWithParam<ConvSizes> {};

TEST_P(ConvolutionEquivalence, FftMatchesDirect) {
  const auto p = GetParam();
  const auto a = randomSignal(p.signal, p.signal);
  const auto b = randomSignal(p.kernel, p.kernel + 100);
  const auto direct = convolveDirect(a, b);
  const auto viaFft = convolveFft(a, b);
  ASSERT_EQ(direct.size(), viaFft.size());
  EXPECT_LT(uniq::test::maxAbsDiff(direct, viaFft), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConvolutionEquivalence,
    ::testing::Values(ConvSizes{1, 1}, ConvSizes{5, 3}, ConvSizes{64, 64},
                      ConvSizes{100, 7}, ConvSizes{7, 100},
                      ConvSizes{1000, 33}, ConvSizes{513, 257}));

TEST(Convolution, AdaptiveDispatchMatchesDirect) {
  const auto a = randomSignal(300, 21);
  const auto small = randomSignal(8, 22);    // direct path
  const auto large = randomSignal(128, 23);  // FFT path
  EXPECT_LT(uniq::test::maxAbsDiff(convolve(a, small),
                                   convolveDirect(a, small)),
            1e-8);
  EXPECT_LT(uniq::test::maxAbsDiff(convolve(a, large),
                                   convolveDirect(a, large)),
            1e-8);
}

}  // namespace
}  // namespace uniq::dsp
