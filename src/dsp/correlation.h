#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.h"

namespace uniq::dsp {

/// Full cross-correlation c[k] = sum_t a[t] * b[t + lag], for
/// lag in [-(b.size()-1), a.size()-1]. Index k maps to lag via
/// lag = k - (b.size()-1). FFT-based.
std::vector<double> crossCorrelate(std::span<const double> a,
                                   std::span<const double> b);

/// Result of a peak search over cross-correlation lags.
struct CorrelationPeak {
  double lag = 0.0;    ///< lag in samples (sub-sample, parabolic refined)
  double value = 0.0;  ///< correlation value at the (interpolated) peak
};

/// Normalized cross-correlation peak: max over lags of
/// xcorr(a,b) / (||a|| * ||b||). Value lies in [-1, 1] for same-length
/// signals; this is the similarity measure the paper uses for comparing
/// HRIRs and pinna responses (Section 2, Figure 2; Section 5, Figure 18).
CorrelationPeak normalizedCorrelationPeak(std::span<const double> a,
                                          std::span<const double> b);

/// Same as normalizedCorrelationPeak but restricting the lag search to
/// |lag| <= maxLagSamples. Useful when signals are pre-aligned and large
/// lags would be spurious.
CorrelationPeak normalizedCorrelationPeak(std::span<const double> a,
                                          std::span<const double> b,
                                          double maxLagSamples);

/// Euclidean norm sqrt(sum x^2), as the normalized peaks above compute it.
double l2Norm(std::span<const double> x);

/// normalizedCorrelationPeak(a, b, maxLagSamples) without the FFT: computes
/// only the lags |lag| <= floor(maxLagSamples) + 1 (the window plus the
/// neighbours the parabolic refine reads) as direct dot products, then
/// applies the same argmax rule, lag window and refine. Costs
/// O(maxLag * length) instead of three transforms of the padded length, and
/// agrees with the FFT path to rounding (~1e-15 relative). `bNorm` must be
/// l2Norm(b); callers that score many signals against one fixed `b` compute
/// it once. Requires maxLagSamples > 0.
CorrelationPeak boundedNormalizedCorrelationPeak(std::span<const double> a,
                                                 std::span<const double> b,
                                                 double bNorm,
                                                 double maxLagSamples);

/// GCC-PHAT cross-correlation: phase-transform-weighted generalized cross
/// correlation. Returns the correlation sequence with the same lag layout as
/// crossCorrelate. Robust delay estimation for wideband signals. Runs
/// gccPhatSpectra, then gccPhatFromSpectra.
std::vector<double> gccPhat(std::span<const double> a,
                            std::span<const double> b);

/// FFT length GCC-PHAT transforms signals of these lengths at:
/// nextPowerOfTwo(aSize + bSize - 1).
std::size_t gccPhatSize(std::size_t aSize, std::size_t bSize);

/// GCC-PHAT's first step: the half spectra of `a` and `b` at
/// gccPhatSize(a.size(), b.size()) into caller storage of n/2 + 1 bins each
/// (for example scratchComplex()). A caller that needs the same spectra for
/// something else reads them here instead of transforming again.
void gccPhatSpectra(std::span<const double> a, std::span<const double> b,
                    std::span<Complex> fa, std::span<Complex> fb);

/// GCC-PHAT's second step on gccPhatSpectra's output for signals of
/// lengths aSize and bSize: PHAT-weights the cross spectrum with
/// kernels::phatWeight (overwriting `fa`) and transforms it back.
/// gccPhat(a, b) equals this bit for bit.
std::vector<double> gccPhatFromSpectra(std::span<Complex> fa,
                                       std::span<const Complex> fb,
                                       std::size_t aSize, std::size_t bSize);

/// Time-difference estimate (in samples, sub-sample accurate) of b relative
/// to a using GCC-PHAT. Positive means b lags a.
double estimateDelayGccPhat(std::span<const double> a,
                            std::span<const double> b,
                            double maxLagSamples = 0.0);

}  // namespace uniq::dsp
