#include "dsp/spectrum.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/fft_plan.h"

namespace uniq::dsp {

double binFrequency(std::size_t bin, std::size_t fftSize, double sampleRate) {
  UNIQ_REQUIRE(fftSize > 0, "fftSize must be positive");
  return static_cast<double>(bin) * sampleRate / static_cast<double>(fftSize);
}

std::size_t frequencyToBin(double freqHz, std::size_t fftSize,
                           double sampleRate) {
  UNIQ_REQUIRE(sampleRate > 0, "sampleRate must be positive");
  const auto bin = static_cast<long>(
      std::lround(freqHz * static_cast<double>(fftSize) / sampleRate));
  return static_cast<std::size_t>(
      std::clamp(bin, 0L, static_cast<long>(fftSize) - 1));
}

std::vector<double> applyFrequencyResponse(std::span<const double> signal,
                                           std::span<const Complex> response,
                                           std::size_t tailSamples) {
  UNIQ_REQUIRE(!signal.empty(), "empty signal");
  UNIQ_REQUIRE(!response.empty(), "empty response");
  const std::size_t outLen = signal.size() + tailSamples;
  const std::size_t n = nextPowerOfTwo(outLen);
  const auto plan = fftPlan(n);
  auto fx = plan->rfft(signal);  // zero-padded to n
  // Map each FFT bin to the nearest bin of `response` (which is assumed to
  // cover the same sample-rate axis with its own resolution). Working on
  // the half spectrum keeps the output real by construction.
  const std::size_t rn = response.size();
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double frac =
        static_cast<double>(k) / static_cast<double>(n);  // 0 .. 0.5
    const auto rk = static_cast<std::size_t>(
        std::min<double>(std::lround(frac * static_cast<double>(rn)),
                         static_cast<double>(rn / 2)));
    fx[k] *= response[rk];
  }
  auto out = plan->irfft(fx);
  out.resize(outLen);
  return out;
}

}  // namespace uniq::dsp
