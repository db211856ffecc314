#include "dsp/convolution.h"

#include <algorithm>

#include "common/error.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/kernels/kernels.h"

namespace uniq::dsp {

std::vector<double> convolveDirect(std::span<const double> a,
                                   std::span<const double> b) {
  UNIQ_REQUIRE(!a.empty() && !b.empty(), "convolution of empty signal");
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += ai * b[j];
  }
  return out;
}

std::vector<double> convolveFft(std::span<const double> a,
                                std::span<const double> b) {
  UNIQ_REQUIRE(!a.empty() && !b.empty(), "convolution of empty signal");
  const std::size_t outLen = a.size() + b.size() - 1;
  const std::size_t n = nextPowerOfTwo(outLen);
  const auto plan = fftPlan(n);
  // Both inputs are real: two half-spectrum transforms (rfft zero-pads them
  // to n) and one inverse replace the three full complex FFTs of the naive
  // approach.
  auto fa = plan->rfft(a);
  const auto fb = plan->rfft(b);
  kernels::cmulInterleaved(fa.data(), fb.data(), fa.size());
  auto full = plan->irfft(fa);
  full.resize(outLen);
  return full;
}

std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b) {
  const std::size_t shorter = std::min(a.size(), b.size());
  if (shorter <= kDirectConvolveCutoff) return convolveDirect(a, b);
  return convolveFft(a, b);
}

}  // namespace uniq::dsp
