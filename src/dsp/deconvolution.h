#pragma once

#include <span>
#include <vector>

#include "dsp/fft.h"

namespace uniq::dsp {

/// Tikhonov regularization strength of every chirp deconvolution, as a
/// fraction of the peak source power:
/// H(f) = Y(f) * conj(X(f)) / (|X(f)|^2 + eps * max|X|^2).
inline constexpr double kRelativeRegularization = 1e-3;

/// Estimate the channel impulse response h from a recording y ≈ x * h,
/// regularized by kRelativeRegularization; returns received.size() samples.
///
/// This is the "channel estimation" step the paper performs by
/// "deconvolving the received signal with the known source signal"
/// (Section 4.1, Figure 9). Regularization keeps the division stable in
/// bands where the probe has little energy.
std::vector<double> deconvolve(std::span<const double> received,
                               std::span<const double> source);

/// deconvolve() against a source already transformed: `sourceSpectrum` is
/// the source's half spectrum at an FFT size n (n/2 + 1 bins, n a power of
/// two of at least received.size() plus the source length) and `floor` its
/// regularizationFloor(). Returns the first min(keep, n) samples of h, bit
/// for bit what deconvolve() returns for the same n. A caller that
/// deconvolves several recordings by one source transforms the source and
/// scans its floor once.
std::vector<double> deconvolveSpectrum(std::span<const double> received,
                                       std::span<const Complex> sourceSpectrum,
                                       double floor, std::size_t keep);

/// The Tikhonov term added to |den(f)|^2: relativeRegularization *
/// max_f |den(f)|^2 (the maximum floored at 1e-300).
double regularizationFloor(std::span<const Complex> denominator,
                           double relativeRegularization);

/// Frequency-domain division of two spectra with Tikhonov regularization:
/// out(f) = num(f) * conj(den(f)) / (|den(f)|^2 + eps * max|den|^2).
std::vector<Complex> regularizedSpectralDivide(
    std::span<const Complex> numerator, std::span<const Complex> denominator,
    double relativeRegularization);

}  // namespace uniq::dsp
