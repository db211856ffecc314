#include "dsp/biquad.h"

#include <cmath>
#include <complex>

#include "common/constants.h"
#include "common/error.h"

namespace uniq::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::lowpass(double cutoffHz, double q, double sampleRate) {
  UNIQ_REQUIRE(cutoffHz > 0 && cutoffHz < sampleRate / 2, "bad cutoff");
  UNIQ_REQUIRE(q > 0, "bad Q");
  const double w = kTwoPi * cutoffHz / sampleRate;
  const double alpha = std::sin(w) / (2 * q);
  const double c = std::cos(w);
  const double a0 = 1 + alpha;
  return Biquad((1 - c) / 2 / a0, (1 - c) / a0, (1 - c) / 2 / a0,
                -2 * c / a0, (1 - alpha) / a0);
}

Biquad Biquad::highpass(double cutoffHz, double q, double sampleRate) {
  UNIQ_REQUIRE(cutoffHz > 0 && cutoffHz < sampleRate / 2, "bad cutoff");
  UNIQ_REQUIRE(q > 0, "bad Q");
  const double w = kTwoPi * cutoffHz / sampleRate;
  const double alpha = std::sin(w) / (2 * q);
  const double c = std::cos(w);
  const double a0 = 1 + alpha;
  return Biquad((1 + c) / 2 / a0, -(1 + c) / a0, (1 + c) / 2 / a0,
                -2 * c / a0, (1 - alpha) / a0);
}

Biquad Biquad::bandpass(double centerHz, double q, double sampleRate) {
  UNIQ_REQUIRE(centerHz > 0 && centerHz < sampleRate / 2, "bad center");
  UNIQ_REQUIRE(q > 0, "bad Q");
  const double w = kTwoPi * centerHz / sampleRate;
  const double alpha = std::sin(w) / (2 * q);
  const double c = std::cos(w);
  const double a0 = 1 + alpha;
  return Biquad(alpha / a0, 0.0, -alpha / a0, -2 * c / a0, (1 - alpha) / a0);
}

double Biquad::step(double x) {
  const double y = b0_ * x + z1_;
  z1_ = b1_ * x - a1_ * y + z2_;
  z2_ = b2_ * x - a2_ * y;
  return y;
}

std::vector<double> Biquad::process(std::span<const double> input) {
  std::vector<double> out(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) out[i] = step(input[i]);
  return out;
}

void Biquad::reset() { z1_ = z2_ = 0.0; }

std::complex<double> Biquad::responseAt(double freqHz,
                                        double sampleRate) const {
  const double w = kTwoPi * freqHz / sampleRate;
  const std::complex<double> z = std::polar(1.0, -w);
  const std::complex<double> num = b0_ + b1_ * z + b2_ * z * z;
  const std::complex<double> den = 1.0 + a1_ * z + a2_ * z * z;
  return num / den;
}

void BiquadCascade::add(Biquad section) { sections_.push_back(section); }

std::vector<double> BiquadCascade::process(std::span<const double> input) {
  std::vector<double> buf(input.begin(), input.end());
  for (auto& s : sections_) buf = s.process(buf);
  return buf;
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

}  // namespace uniq::dsp
