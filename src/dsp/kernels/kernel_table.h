#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

#include "dsp/kernels/kernels.h"

namespace uniq::dsp::kernels::detail {

/// Function-pointer table one ISA tier fills in. The dispatcher resolves a
/// table once per process (plus test overrides); the public wrappers in
/// kernels.h jump through it.
struct KernelTable {
  void (*ditStages)(double*, double*, std::size_t, const double*,
                    const double*, std::size_t firstLen);
  void (*gatherBitReversed)(const std::complex<double>*, const std::uint32_t*,
                            std::size_t, double*, double*);
  void (*interleaveScaled)(const double*, const double*, std::size_t, double,
                           double*);
  void (*rfftSplit)(const double*, const double*, std::size_t, const double*,
                    const double*, std::complex<double>*);
  void (*irfftMerge)(const std::complex<double>*, std::size_t, const double*,
                     const double*, std::complex<double>*);
  void (*magnitudes)(const std::complex<double>*, std::size_t, double*);
  void (*cmulInterleaved)(std::complex<double>*, const std::complex<double>*,
                          std::size_t);
  void (*cmulConjInterleaved)(std::complex<double>*,
                              const std::complex<double>*, std::size_t);
  void (*phatWeight)(std::complex<double>*, const std::complex<double>*,
                     std::size_t, double);
  void (*spectralDivide)(const std::complex<double>*,
                         const std::complex<double>*, double,
                         std::complex<double>*, std::size_t);
  double (*maxNorm)(const std::complex<double>*, std::size_t);
  double (*dotProduct)(const double*, const double*, std::size_t);
  void (*lagDotProducts)(const double*, std::size_t, const double*,
                         std::size_t, long, long, double*);
  void (*firFilter)(const double*, const double*, std::size_t, std::size_t,
                    double*);
  double (*sumSquares)(const double*, std::size_t);
  int (*visibilityCrossings)(const double*, const double*, const double*,
                             std::size_t, double, double,
                             VisibilityCrossing*, int);
};

/// The portable tier (always present).
const KernelTable& scalarTable();

#if defined(UNIQ_HAVE_AVX2)
/// The AVX2+FMA tier (present only when the build enabled UNIQ_SIMD).
const KernelTable& avx2Table();

/// The AVX2 kernels whose contract is the scalar tier's exact bits. They
/// live in kernels_avx2_nofma.cpp, built with -mavx2 but not -mfma: GCC
/// treats _mm256_add_pd(x, _mm256_mul_pd(a, b)) as plain vector arithmetic
/// and, in a file that may emit FMA, is free to contract it into one.
namespace avx2_nofma {
void gatherBitReversed(const std::complex<double>* in,
                       const std::uint32_t* rev, std::size_t n, double* re,
                       double* im);
void interleaveScaled(const double* re, const double* im, std::size_t n,
                      double s, double* out);
void rfftSplit(const double* zRe, const double* zIm, std::size_t h,
               const double* wr, const double* wi, std::complex<double>* out);
void irfftMerge(const std::complex<double>* x, std::size_t h,
                const double* wr, const double* wi, std::complex<double>* z);
void magnitudes(const std::complex<double>* x, std::size_t n, double* out);
void phatWeight(std::complex<double>* a, const std::complex<double>* b,
                std::size_t n, double minMagnitude);
void firFilter(const double* x, const double* w, std::size_t taps,
               std::size_t count, double* out);
}  // namespace avx2_nofma
#endif

/// The currently dispatched table.
const KernelTable& table();

}  // namespace uniq::dsp::kernels::detail
