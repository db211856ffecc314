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

std::vector<double> convolveOverlapAdd(std::span<const double> signal,
                                       std::span<const double> kernel,
                                       std::size_t blockSize) {
  UNIQ_REQUIRE(!signal.empty() && !kernel.empty(),
               "convolution of empty signal");
  UNIQ_REQUIRE(blockSize >= 1, "blockSize must be >= 1");
  const std::size_t outLen = signal.size() + kernel.size() - 1;
  const std::size_t fftLen = nextPowerOfTwo(blockSize + kernel.size() - 1);
  const auto plan = fftPlan(fftLen);

  // Pre-transform the kernel once; rfft zero-pads it and each block to
  // fftLen.
  const auto fk = plan->rfft(kernel);

  std::vector<double> out(outLen, 0.0);
  for (std::size_t start = 0; start < signal.size(); start += blockSize) {
    const std::size_t len = std::min(blockSize, signal.size() - start);
    auto fb = plan->rfft(signal.subspan(start, len));
    kernels::cmulInterleaved(fb.data(), fk.data(), fb.size());
    const auto time = plan->irfft(fb);
    const std::size_t tail = std::min(len + kernel.size() - 1, outLen - start);
    for (std::size_t i = 0; i < tail; ++i) out[start + i] += time[i];
  }
  return out;
}

std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b) {
  const std::size_t shorter = std::min(a.size(), b.size());
  if (shorter <= kDirectConvolveCutoff) return convolveDirect(a, b);
  return convolveFft(a, b);
}

}  // namespace uniq::dsp
