#include "dsp/deconvolution.h"

#include <algorithm>
#include <cmath>

#include "common/aligned.h"
#include "common/error.h"
#include "dsp/fft_plan.h"
#include "dsp/kernels/kernels.h"

namespace uniq::dsp {

double regularizationFloor(std::span<const Complex> denominator,
                           double relativeRegularization) {
  UNIQ_REQUIRE(relativeRegularization > 0.0,
               "regularization must be positive");
  const double maxPow = kernels::maxNorm(denominator.data(),
                                         denominator.size());
  return relativeRegularization * std::max(maxPow, 1e-300);
}

std::vector<Complex> regularizedSpectralDivide(
    std::span<const Complex> numerator, std::span<const Complex> denominator,
    double relativeRegularization) {
  UNIQ_REQUIRE(numerator.size() == denominator.size(),
               "spectra must have equal length");
  const double eps = regularizationFloor(denominator, relativeRegularization);
  std::vector<Complex> out(numerator.size());
  kernels::spectralDivide(numerator.data(), denominator.data(), eps,
                          out.data(), out.size());
  return out;
}

std::vector<double> deconvolveSpectrum(std::span<const double> received,
                                       std::span<const Complex> sourceSpectrum,
                                       double floor, std::size_t keep) {
  UNIQ_REQUIRE(!received.empty(), "deconvolve of empty signal");
  UNIQ_REQUIRE(sourceSpectrum.size() >= 2,
               "source spectrum needs n/2 + 1 >= 2 bins");
  const std::size_t n = 2 * (sourceSpectrum.size() - 1);
  const auto plan = fftPlan(n);
  // The received spectrum, the quotient (in place) and the inverse live in
  // the thread's scratch arena: at the AoA path's n = 16384 fresh vectors
  // would sit right at the allocator's mmap threshold.
  common::ArenaScope scope(common::simdScratch());
  const auto fy = scratchComplex(n / 2 + 1);
  plan->rfft(received, fy);
  kernels::spectralDivide(fy.data(), sourceSpectrum.data(), floor, fy.data(),
                          fy.size());
  const auto time = scratchDoubles(n);
  plan->irfft(fy, time);
  return std::vector<double>(time.begin(),
                             time.begin() + std::min(keep, n));
}

std::vector<double> deconvolve(std::span<const double> received,
                               std::span<const double> source) {
  UNIQ_REQUIRE(!received.empty() && !source.empty(),
               "deconvolve of empty signal");
  const std::size_t n = nextPowerOfTwo(received.size() + source.size());
  // Both inputs are real (rfft zero-pads them to n): divide the half
  // spectra only. The regularization floor is unchanged because |X(f)|^2
  // attains its maximum inside the half spectrum of a conjugate-symmetric
  // transform.
  common::ArenaScope scope(common::simdScratch());
  const auto fx = scratchComplex(n / 2 + 1);
  fftPlan(n)->rfft(source, fx);
  return deconvolveSpectrum(received, fx,
                            regularizationFloor(fx, kRelativeRegularization),
                            received.size());
}

}  // namespace uniq::dsp
