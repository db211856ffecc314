#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace uniq::dsp {

/// Default half-width (samples) of the Blackman-sinc kernels below.
inline constexpr int kDefaultSincHalfWidth = 16;

/// Add a scaled, fractionally-delayed unit impulse into `buffer`:
/// buffer[t] += amplitude * sinc_window(t - delaySamples).
///
/// This is how the simulation substrate and the model-correction code place
/// acoustic taps at physically exact (non-integer) sample positions. The
/// kernel is a Blackman-windowed sinc of half-width `halfWidth` samples.
/// Taps whose kernel support falls outside the buffer are clipped.
void addFractionalTap(std::span<double> buffer, double delaySamples,
                      double amplitude, int halfWidth = kDefaultSincHalfWidth);

/// Shift a signal by a fractional number of samples (positive = delay).
/// Output has the same length; content shifted beyond the ends is lost.
/// The Blackman-sinc kernel depends only on the shift, so its
/// 2*halfWidth+1 weights are computed once per call. A non-finite shift, or
/// one with |shift| >= signal.size() + halfWidth, yields all zeros.
/// Requires halfWidth >= 1.
std::vector<double> fractionalShift(std::span<const double> signal,
                                    double shiftSamples,
                                    int halfWidth = kDefaultSincHalfWidth);

/// fractionalShift with `outputLength` samples out, bitwise equal to the
/// same-length shift resized to it: samples past the input's length are
/// zero, and samples past `outputLength` are never computed.
std::vector<double> fractionalShift(std::span<const double> signal,
                                    double shiftSamples, int halfWidth,
                                    std::size_t outputLength);

}  // namespace uniq::dsp
