#pragma once

#include <complex>
#include <span>

namespace uniq::dsp {

using Complex = std::complex<double>;

/// Smallest power of two >= n (n >= 1). Throws uniq::InvalidArgument when n
/// exceeds the largest representable power of two instead of looping or
/// wrapping.
std::size_t nextPowerOfTwo(std::size_t n);

/// True when n is a power of two (n >= 1).
bool isPowerOfTwo(std::size_t n);

/// The seed's table-free in-place radix-2 complex FFT (data.size() a power
/// of two; `inverse` applies the conjugate transform and the 1/N scaling),
/// which recomputes twiddles on every call. Production code transforms
/// through FftPlan::rfft/irfft (dsp/fft_plan.h); this is kept as the
/// independent reference the rfft/irfft tests compare against.
void fftPow2ReferenceInPlace(std::span<Complex> data, bool inverse);

}  // namespace uniq::dsp
