#include "dsp/fractional_delay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/random.h"
#include "dsp/kernels/kernels.h"
#include "dsp/signal_generators.h"
#include "test_util.h"

namespace uniq::dsp {
namespace {

TEST(AddFractionalTap, IntegerPositionIsExact) {
  std::vector<double> buf(64, 0.0);
  addFractionalTap(buf, 20.0, 0.7);
  EXPECT_NEAR(buf[20], 0.7, 1e-9);
  // Sinc zero crossings at the other integer positions.
  EXPECT_NEAR(buf[19], 0.0, 1e-9);
  EXPECT_NEAR(buf[25], 0.0, 1e-9);
}

TEST(AddFractionalTap, ZeroAmplitudeNoOp) {
  std::vector<double> buf(16, 0.0);
  addFractionalTap(buf, 8.0, 0.0);
  for (double v : buf) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AddFractionalTap, ClipsAtBufferEdges) {
  std::vector<double> buf(16, 0.0);
  addFractionalTap(buf, 14.5, 1.0, 8);   // kernel extends past the end
  addFractionalTap(buf, 1.5, 1.0, 8);    // kernel extends before the start
  // Must not crash; energy present near both taps.
  EXPECT_GT(std::fabs(buf[14]) + std::fabs(buf[15]), 0.1);
  EXPECT_GT(std::fabs(buf[1]) + std::fabs(buf[2]), 0.1);
}

TEST(AddFractionalTap, RejectsBadHalfWidth) {
  std::vector<double> buf(16, 0.0);
  EXPECT_THROW(addFractionalTap(buf, 8.0, 1.0, 0), InvalidArgument);
}

TEST(AddFractionalTap, EnergyCloseToUnityForInteriorTap) {
  // The Blackman window trims the sinc tails, costing ~5% energy.
  std::vector<double> buf(256, 0.0);
  addFractionalTap(buf, 128.37, 1.0, 16);
  EXPECT_NEAR(uniq::test::energy(buf), 0.95, 0.04);
}

class ShiftRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(ShiftRoundTrip, ShiftThenUnshiftIsNearIdentity) {
  const double shift = GetParam();
  Pcg32 rng(17);
  // Band-limit the test signal a bit (white noise at full band suffers at
  // the interpolation kernel's edge response).
  auto sig = linearChirp(200.0, 18000.0, 512, 48000.0);
  std::vector<double> padded(700, 0.0);
  for (std::size_t i = 0; i < sig.size(); ++i) padded[i + 64] = sig[i];
  const auto shifted = fractionalShift(padded, shift);
  const auto back = fractionalShift(shifted, -shift);
  // Compare away from the edges.
  double maxErr = 0.0;
  for (std::size_t i = 80; i + 80 < padded.size(); ++i)
    maxErr = std::max(maxErr, std::fabs(back[i] - padded[i]));
  EXPECT_LT(maxErr, 0.02) << "shift " << shift;
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftRoundTrip,
                         ::testing::Values(0.0, 0.5, 1.25, 3.75, 10.0, -4.5));

TEST(FractionalShift, IntegerShiftMovesSamplesExactly) {
  std::vector<double> sig(32, 0.0);
  sig[10] = 1.0;
  const auto shifted = fractionalShift(sig, 5.0);
  EXPECT_NEAR(shifted[15], 1.0, 1e-9);
  EXPECT_NEAR(shifted[10], 0.0, 1e-9);
}

TEST(FractionalShift, ContentShiftedOutIsLost) {
  std::vector<double> sig(32, 0.0);
  sig[30] = 1.0;
  const auto shifted = fractionalShift(sig, 10.0);
  EXPECT_LT(uniq::test::energy(shifted), 0.05);
}

TEST(FractionalShift, RejectsBadHalfWidth) {
  const std::vector<double> sig(16, 1.0);
  EXPECT_THROW(fractionalShift(sig, 2.0, 0), InvalidArgument);
  EXPECT_THROW(fractionalShift(sig, 2.0, -3), InvalidArgument);
  EXPECT_THROW(fractionalShift(std::vector<double>{}, 2.0, 0),
               InvalidArgument);
}

TEST(FractionalShift, OutOfRangeShiftsGiveZeros) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> sig(40, 1.0);
  const int w = 4;
  const double edge = static_cast<double>(sig.size() + w);
  for (double shift : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
                       edge, -edge, 1e300, -1e300, 1e19, -1e19}) {
    const auto out = fractionalShift(sig, shift, w);
    ASSERT_EQ(out.size(), sig.size()) << "shift " << shift;
    for (double v : out) EXPECT_EQ(v, 0.0) << "shift " << shift;
  }
  // The kernel's tail still reaches the first sample from the last output
  // while shift < size - 1 + halfWidth.
  EXPECT_NE(fractionalShift(sig, edge - 1.5, w).back(), 0.0);
  EXPECT_NE(fractionalShift(sig, -(edge - 1.5), w).front(), 0.0);
  EXPECT_TRUE(fractionalShift(std::vector<double>{}, 3.0, w).empty());
}

/// The per-tap form the kernel is pinned against: evaluate the
/// Blackman-windowed sinc afresh for every tap of every output sample.
double referenceSinc(double x, int w) {
  if (std::fabs(x) >= w) return 0.0;
  double s;
  if (std::fabs(x) < 1e-12) {
    s = 1.0;
  } else {
    const double px = kPi * x;
    s = std::sin(px) / px;
  }
  const double u = (x + w) / (2.0 * w);
  const double win =
      0.42 - 0.5 * std::cos(kTwoPi * u) + 0.08 * std::cos(2 * kTwoPi * u);
  return s * win;
}

std::vector<double> referenceShift(const std::vector<double>& signal,
                                   double shiftSamples, int halfWidth) {
  std::vector<double> out(signal.size(), 0.0);
  for (std::size_t t = 0; t < out.size(); ++t) {
    const double srcPos = static_cast<double>(t) - shiftSamples;
    const long lo = static_cast<long>(std::ceil(srcPos)) - halfWidth;
    const long hi = static_cast<long>(std::floor(srcPos)) + halfWidth;
    double acc = 0.0;
    for (long k = std::max(lo, 0L);
         k <= std::min(hi, static_cast<long>(signal.size()) - 1); ++k) {
      acc += signal[static_cast<std::size_t>(k)] *
             referenceSinc(srcPos - static_cast<double>(k), halfWidth);
    }
    out[t] = acc;
  }
  return out;
}

TEST(FractionalShift, MatchesPerTapReference) {
  Pcg32 rng(29);
  for (std::size_t n : {0u, 1u, 5u, 192u, 700u}) {
    std::vector<double> sig(n);
    for (auto& v : sig) v = rng.gaussian();
    double peak = 0.0;
    for (double v : sig) peak = std::max(peak, std::fabs(v));
    for (int w : {1, 4, 16}) {
      const double edge = static_cast<double>(n) + w - 0.5;
      for (double shift : {0.0, 0.5, -0.5, 1.25, -4.5, 10.0, 31.999, 1e-13,
                           edge, -edge}) {
        const auto got = fractionalShift(sig, shift, w);
        const auto want = referenceShift(sig, shift, w);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t t = 0; t < n; ++t)
          ASSERT_NEAR(got[t], want[t], 1e-12 * peak)
              << "n " << n << " halfWidth " << w << " shift " << shift
              << " t " << t;
      }
    }
  }
}

/// Same length and the same bits in every sample.
bool bitwiseEqual(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) return false;
  if (x.empty()) return true;
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(FractionalShift, OutputLengthIsBitwiseShiftThenResize) {
  Pcg32 rng(5);
  std::vector<double> sig(300);
  for (auto& v : sig) v = rng.gaussian();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double shift : {0.0, 3.37, -2.5, 17.0, -40.25, 299.5, 1e9, nan}) {
    for (const int w : {4, 16}) {
      const auto full = fractionalShift(sig, shift, w);
      for (const std::size_t len : {0, 1, 64, 255, 300, 301, 512}) {
        auto want = full;
        want.resize(len, 0.0);
        EXPECT_TRUE(bitwiseEqual(fractionalShift(sig, shift, w, len), want))
            << "shift " << shift << " halfWidth " << w << " length " << len;
      }
    }
  }
}

/// The per-output loop fractionalShift ran before its interior outputs
/// moved onto the kernel layer: weights computed once per call, every
/// output summed over its in-range taps in ascending order.
std::vector<double> perOutputShift(const std::vector<double>& signal,
                                   double shiftSamples, int halfWidth,
                                   std::size_t outputLength) {
  const long n = static_cast<long>(signal.size());
  std::vector<double> out(outputLength, 0.0);
  if (!std::isfinite(shiftSamples) ||
      std::fabs(shiftSamples) >= static_cast<double>(n + halfWidth))
    return out;
  const long c0 = static_cast<long>(std::ceil(-shiftSamples));
  const double frac = -shiftSamples - static_cast<double>(c0);
  const long taps = 2L * halfWidth + 1;
  std::vector<double> weights(static_cast<std::size_t>(taps));
  for (long j = 0; j < taps; ++j)
    weights[static_cast<std::size_t>(j)] =
        referenceSinc(frac + static_cast<double>(halfWidth - j), halfWidth);
  const long computed = std::min(n, static_cast<long>(out.size()));
  for (long t = 0; t < computed; ++t) {
    const long k0 = t + c0 - halfWidth;
    const long jHi = std::min(taps - 1, n - 1 - k0);
    double acc = 0.0;
    for (long j = std::max(0L, -k0); j <= jHi; ++j)
      acc += signal[static_cast<std::size_t>(k0 + j)] *
             weights[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(t)] = acc;
  }
  return out;
}

/// Runs on each kernel tier; the AVX2 half skips itself when the tier is
/// unavailable.
class FractionalShiftTiers
    : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  void SetUp() override {
    natural_ = kernels::activeIsa();
    if (!kernels::setIsaOverride(GetParam()))
      GTEST_SKIP() << kernels::isaName(GetParam()) << " tier unavailable";
  }
  void TearDown() override { kernels::setIsaOverride(natural_); }
  kernels::Isa natural_ = kernels::Isa::kScalar;
};

INSTANTIATE_TEST_SUITE_P(Tiers, FractionalShiftTiers,
                         ::testing::Values(kernels::Isa::kScalar,
                                           kernels::Isa::kAvx2),
                         [](const auto& info) {
                           return std::string(kernels::isaName(info.param));
                         });

TEST_P(FractionalShiftTiers, MatchesThePerOutputLoopBitwise) {
  Pcg32 rng(31);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : {0u, 1u, 5u, 192u, 700u}) {
    std::vector<double> sig(n);
    for (auto& v : sig) v = rng.gaussian();
    for (int w : {1, 4, 16}) {
      // Shifts that leave every output interior, every output on an edge,
      // the last in-range shifts either way, and out-of-range ones.
      const double edge = static_cast<double>(n) + w - 0.5;
      const double out = static_cast<double>(n + w);
      for (double shift : {0.0, 0.5, -0.5, 1.25, -4.5, 10.0, 31.999, 1e-13,
                           -0.0, edge, -edge, edge - 1.0, 1.0 - edge, out,
                           -out, nan}) {
        for (std::size_t len : {n, n / 2, n + 9}) {
          const auto got = fractionalShift(sig, shift, w, len);
          const auto want = perOutputShift(sig, shift, w, len);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t t = 0; t < got.size(); ++t)
            ASSERT_EQ(got[t], want[t])
                << "n " << n << " halfWidth " << w << " shift " << shift
                << " length " << len << " t " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace uniq::dsp
