#include "dsp/resample.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"

namespace uniq::dsp {

namespace {

double blackman(double u) {
  return 0.42 - 0.5 * std::cos(kTwoPi * u) + 0.08 * std::cos(2 * kTwoPi * u);
}

}  // namespace

std::vector<double> resample(std::span<const double> input, double inputRate,
                             double outputRate, int halfWidth) {
  UNIQ_REQUIRE(!input.empty(), "resample of empty signal");
  UNIQ_REQUIRE(inputRate > 0 && outputRate > 0, "rates must be positive");
  UNIQ_REQUIRE(halfWidth >= 2, "halfWidth must be >= 2");
  const double ratio = outputRate / inputRate;
  const auto outLen = static_cast<std::size_t>(
      std::floor(static_cast<double>(input.size()) * ratio));
  UNIQ_REQUIRE(outLen >= 1, "output would be empty");
  // When downsampling, cut the sinc at the output Nyquist (fc < 1 in units
  // of the input Nyquist) and widen the kernel correspondingly.
  const double fc = std::min(1.0, ratio);
  const int w = static_cast<int>(std::ceil(halfWidth / fc));
  std::vector<double> out(outLen, 0.0);
  for (std::size_t i = 0; i < outLen; ++i) {
    const double srcPos = static_cast<double>(i) / ratio;
    const long lo = static_cast<long>(std::ceil(srcPos)) - w;
    const long hi = static_cast<long>(std::floor(srcPos)) + w;
    double acc = 0.0;
    for (long k = std::max(lo, 0L);
         k <= std::min(hi, static_cast<long>(input.size()) - 1); ++k) {
      const double x = (srcPos - static_cast<double>(k)) * fc;
      double s;
      if (std::fabs(x) < 1e-12) {
        s = 1.0;
      } else {
        s = std::sin(kPi * x) / (kPi * x);
      }
      const double u = (srcPos - static_cast<double>(k) + w) / (2.0 * w);
      acc += input[static_cast<std::size_t>(k)] * s * fc *
             blackman(std::clamp(u, 0.0, 1.0));
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace uniq::dsp
