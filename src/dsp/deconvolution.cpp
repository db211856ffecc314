#include "dsp/deconvolution.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/fft_plan.h"
#include "dsp/kernels/kernels.h"

namespace uniq::dsp {

std::vector<Complex> regularizedSpectralDivide(
    std::span<const Complex> numerator, std::span<const Complex> denominator,
    double relativeRegularization) {
  UNIQ_REQUIRE(numerator.size() == denominator.size(),
               "spectra must have equal length");
  UNIQ_REQUIRE(relativeRegularization > 0.0,
               "regularization must be positive");
  const double maxPow = kernels::maxNorm(denominator.data(),
                                         denominator.size());
  const double eps = relativeRegularization * std::max(maxPow, 1e-300);
  std::vector<Complex> out(numerator.size());
  kernels::spectralDivide(numerator.data(), denominator.data(), eps,
                          out.data(), out.size());
  return out;
}

std::vector<double> deconvolve(std::span<const double> received,
                               std::span<const double> source,
                               const DeconvolutionOptions& opts) {
  UNIQ_REQUIRE(!received.empty() && !source.empty(),
               "deconvolve of empty signal");
  const std::size_t n = nextPowerOfTwo(received.size() + source.size());
  const auto plan = fftPlan(n);
  // Both inputs are real (rfft zero-pads them to n): divide the half
  // spectra only. The regularization floor is unchanged because |X(f)|^2
  // attains its maximum inside the half spectrum of a conjugate-symmetric
  // transform.
  const auto fy = plan->rfft(received);
  const auto fx = plan->rfft(source);
  const auto fh =
      regularizedSpectralDivide(fy, fx, opts.relativeRegularization);
  const auto time = plan->irfft(fh);
  std::size_t keep = opts.responseLength == 0
                         ? received.size()
                         : std::min(opts.responseLength, n);
  std::vector<double> h(keep);
  for (std::size_t i = 0; i < keep; ++i) h[i] = time[i];
  return h;
}

}  // namespace uniq::dsp
