#include "dsp/biquad.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.h"
#include "common/error.h"

namespace uniq::dsp {
namespace {

constexpr double kFs = 48000.0;

std::vector<double> sine(double freq, std::size_t n) {
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = std::sin(kTwoPi * freq * static_cast<double>(i) / kFs);
  return s;
}

double steadyStateRms(const std::vector<double>& s) {
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t i = s.size() / 2; i < s.size(); ++i) {
    acc += s[i] * s[i];
    ++count;
  }
  return std::sqrt(acc / static_cast<double>(count));
}

TEST(Biquad, LowpassAttenuatesHighFrequencies) {
  auto lp = Biquad::lowpass(1000.0, 0.707, kFs);
  const auto lowOut = lp.process(sine(100.0, 4800));
  lp.reset();
  const auto highOut = lp.process(sine(10000.0, 4800));
  EXPECT_GT(steadyStateRms(lowOut), 0.6);
  EXPECT_LT(steadyStateRms(highOut), 0.05);
}

TEST(Biquad, HighpassAttenuatesLowFrequencies) {
  auto hp = Biquad::highpass(1000.0, 0.707, kFs);
  const auto lowOut = hp.process(sine(100.0, 4800));
  hp.reset();
  const auto highOut = hp.process(sine(10000.0, 4800));
  EXPECT_LT(steadyStateRms(lowOut), 0.05);
  EXPECT_GT(steadyStateRms(highOut), 0.6);
}

TEST(Biquad, BandpassPeaksAtCenter) {
  auto bp = Biquad::bandpass(2000.0, 2.0, kFs);
  const double atCenter = std::abs(bp.responseAt(2000.0, kFs));
  EXPECT_NEAR(atCenter, 1.0, 0.05);
  EXPECT_LT(std::abs(bp.responseAt(200.0, kFs)), 0.25);
  EXPECT_LT(std::abs(bp.responseAt(18000.0, kFs)), 0.25);
}

TEST(Biquad, MagnitudeMatchesMeasuredGain) {
  auto lp = Biquad::lowpass(3000.0, 0.707, kFs);
  const double freq = 2000.0;
  const double predicted = std::abs(lp.responseAt(freq, kFs));
  const auto out = lp.process(sine(freq, 9600));
  const double measured = steadyStateRms(out) * std::sqrt(2.0);
  EXPECT_NEAR(measured, predicted, 0.03);
}

TEST(Biquad, ResponseAtDcForLowpassIsUnity) {
  auto lp = Biquad::lowpass(1000.0, 0.707, kFs);
  EXPECT_NEAR(std::abs(lp.responseAt(0.0, kFs)), 1.0, 1e-9);
}

TEST(Biquad, RejectsBadParameters) {
  EXPECT_THROW(Biquad::lowpass(0.0, 0.7, kFs), InvalidArgument);
  EXPECT_THROW(Biquad::lowpass(25000.0, 0.7, kFs), InvalidArgument);
  EXPECT_THROW(Biquad::highpass(100.0, 0.0, kFs), InvalidArgument);
  EXPECT_THROW(Biquad::bandpass(-5.0, 1.0, kFs), InvalidArgument);
}

TEST(Biquad, ResetClearsState) {
  auto lp = Biquad::lowpass(500.0, 0.707, kFs);
  const auto first = lp.process(sine(100.0, 256));
  lp.reset();
  const auto second = lp.process(sine(100.0, 256));
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_DOUBLE_EQ(first[i], second[i]);
}

TEST(BiquadCascade, CombinesSections) {
  BiquadCascade cascade;
  cascade.add(Biquad::highpass(300.0, 0.707, kFs));
  cascade.add(Biquad::lowpass(3000.0, 0.707, kFs));
  const auto inBand = cascade.process(sine(1000.0, 4800));
  cascade.reset();
  const auto below = cascade.process(sine(30.0, 4800));
  cascade.reset();
  const auto above = cascade.process(sine(15000.0, 4800));
  EXPECT_GT(steadyStateRms(inBand), 0.5);
  EXPECT_LT(steadyStateRms(below), 0.05);
  EXPECT_LT(steadyStateRms(above), 0.05);
}

}  // namespace
}  // namespace uniq::dsp
