#pragma once

#include <complex>
#include <cstddef>

#include "dsp/kernels/kernels.h"

namespace uniq::dsp::kernels::detail {

/// Function-pointer table one ISA tier fills in. The dispatcher resolves a
/// table once per process (plus test overrides); the public wrappers in
/// kernels.h jump through it.
struct KernelTable {
  void (*ditStages)(double*, double*, std::size_t, const double*,
                    const double*, std::size_t firstLen);
  void (*difStages)(double*, double*, std::size_t, const double*,
                    const double*);
  void (*scaleInPlace)(double*, std::size_t, double);
  void (*cmulSplit)(double*, double*, const double*, const double*,
                    std::size_t);
  void (*cmulInterleaved)(std::complex<double>*, const std::complex<double>*,
                          std::size_t);
  void (*cmulConjInterleaved)(std::complex<double>*,
                              const std::complex<double>*, std::size_t);
  void (*spectralDivide)(const std::complex<double>*,
                         const std::complex<double>*, double,
                         std::complex<double>*, std::size_t);
  double (*maxNorm)(const std::complex<double>*, std::size_t);
  double (*dotProduct)(const double*, const double*, std::size_t);
  double (*sumSquares)(const double*, std::size_t);
  double (*sum)(const double*, std::size_t);
  void (*pearsonAccum)(const double*, const double*, std::size_t, double,
                       double, double[3]);
  int (*visibilityCrossings)(const double*, const double*, const double*,
                             std::size_t, double, double,
                             VisibilityCrossing*, int);
};

/// The portable tier (always present).
const KernelTable& scalarTable();

#if defined(UNIQ_HAVE_AVX2)
/// The AVX2+FMA tier (present only when the build enabled UNIQ_SIMD).
const KernelTable& avx2Table();
#endif

/// The currently dispatched table.
const KernelTable& table();

}  // namespace uniq::dsp::kernels::detail
