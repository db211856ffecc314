#pragma once

#include <span>
#include <vector>

namespace uniq::dsp {

/// Direct (time-domain) full linear convolution. Output length is
/// a.size() + b.size() - 1. O(N*M); use for short kernels and as the
/// reference implementation in tests.
std::vector<double> convolveDirect(std::span<const double> a,
                                   std::span<const double> b);

/// FFT-based full linear convolution. Identical output to convolveDirect up
/// to floating-point noise.
std::vector<double> convolveFft(std::span<const double> a,
                                std::span<const double> b);

/// Shorter-signal length at or below which convolve() picks the direct
/// O(N*M) kernel over the FFT path. Chosen from the crossover of
/// BM_ConvolveDirectSmall vs BM_ConvolveFftSmall in bench/perf_micro.cpp,
/// re-measured after the SIMD kernel layer landed (3-rep medians on a
/// 4096-sample signal): direct still wins at 64 taps (102us vs 130us) and
/// FFT wins from 128 (178us vs 128us) — the vector kernels sped both paths
/// up by a similar factor, so the crossover stayed between 64 and 128 and
/// the pre-SIMD value stands. Re-run those benches (and regenerate
/// BENCH_perf.json) before changing it.
inline constexpr std::size_t kDirectConvolveCutoff = 64;

/// Size-adaptive convolution: direct for tiny kernels (shorter input at or
/// below kDirectConvolveCutoff taps), FFT otherwise.
std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b);

}  // namespace uniq::dsp
