#pragma once

#include <span>
#include <vector>

#include "dsp/fft.h"

namespace uniq::dsp {

/// Center frequency of bin k for an N-point FFT at `sampleRate`.
double binFrequency(std::size_t bin, std::size_t fftSize, double sampleRate);

/// Nearest bin index for frequency f.
std::size_t frequencyToBin(double freqHz, std::size_t fftSize,
                           double sampleRate);

/// Apply a complex frequency response to a time-domain signal (zero-padded
/// FFT filtering; `response` is resampled onto the FFT grid by nearest bin
/// if sizes differ). Output has the same length as the input plus the
/// settling tail up to `tailSamples`.
std::vector<double> applyFrequencyResponse(std::span<const double> signal,
                                           std::span<const Complex> response,
                                           std::size_t tailSamples = 0);

}  // namespace uniq::dsp
