// Portable scalar tier of the kernel layer. Every kernel here is the
// reference implementation the SIMD tiers are tested against (ulp-bounded
// equality, see tests/test_kernels.cpp). Loops are written with explicit
// double temporaries — the same form PR 1 found keeps GCC from emitting
// hybrid packed/scalar code with stack round-trips on the butterflies.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>

#include "dsp/kernels/kernel_table.h"

namespace uniq::dsp::kernels::detail {

namespace {

using Complex = std::complex<double>;

// --- FFT butterfly cascades over split re/im lanes ------------------------

/// Stages len = firstLen, 2 * firstLen, ..., n (firstLen >= 4) from the
/// packed tables (offset len/2 - 2).
void multiplyingStagesDit(double* re, double* im, std::size_t n,
                          const double* twRe, const double* twIm,
                          std::size_t firstLen) {
  for (std::size_t len = firstLen; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = twRe + (half - 2);
    const double* wi = twIm + (half - 2);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double br = re[i + k + half];
        const double bi = im[i + k + half];
        const double vr = br * wr[k] - bi * wi[k];
        const double vi = br * wi[k] + bi * wr[k];
        const double ur = re[i + k];
        const double ui = im[i + k];
        re[i + k] = ur + vr;
        im[i + k] = ui + vi;
        re[i + k + half] = ur - vr;
        im[i + k + half] = ui - vi;
      }
    }
  }
}

void stage2Dit(double* re, double* im, std::size_t n) {
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const double ur = re[i], ui = im[i];
    const double vr = re[i + 1], vi = im[i + 1];
    re[i] = ur + vr;
    im[i] = ui + vi;
    re[i + 1] = ur - vr;
    im[i + 1] = ui - vi;
  }
}

void ditStagesImpl(double* re, double* im, std::size_t n, const double* twRe,
                   const double* twIm, std::size_t firstLen) {
  if (n < 2) return;
  if (firstLen <= 2) stage2Dit(re, im, n);
  multiplyingStagesDit(re, im, n, twRe, twIm,
                       std::max<std::size_t>(firstLen, 4));
}

void difStagesImpl(double* re, double* im, std::size_t n, const double* twRe,
                   const double* twIm) {
  if (n < 2) return;
  // Descending stages: butterfly u' = u + v, v' = (u - v) * w.
  for (std::size_t len = n; len >= 4; len >>= 1) {
    const std::size_t half = len / 2;
    const double* wr = twRe + (half - 2);
    const double* wi = twIm + (half - 2);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double ur = re[i + k];
        const double ui = im[i + k];
        const double br = re[i + k + half];
        const double bi = im[i + k + half];
        const double tr = ur - br;
        const double ti = ui - bi;
        re[i + k] = ur + br;
        im[i + k] = ui + bi;
        re[i + k + half] = tr * wr[k] - ti * wi[k];
        im[i + k + half] = tr * wi[k] + ti * wr[k];
      }
    }
  }
  stage2Dit(re, im, n);  // len == 2: same add/sub butterfly both directions
}

void scaleInPlaceImpl(double* x, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

// --- Complex pointwise ----------------------------------------------------

void cmulSplitImpl(double* aRe, double* aIm, const double* bRe,
                   const double* bIm, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = aRe[i], ai = aIm[i];
    const double br = bRe[i], bi = bIm[i];
    aRe[i] = ar * br - ai * bi;
    aIm[i] = ar * bi + ai * br;
  }
}

void cmulInterleavedImpl(Complex* a, const Complex* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double ar = ad[i], ai = ad[i + 1];
    const double br = bd[i], bi = bd[i + 1];
    ad[i] = ar * br - ai * bi;
    ad[i + 1] = ar * bi + ai * br;
  }
}

void cmulConjInterleavedImpl(Complex* a, const Complex* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const double ar = ad[i], ai = ad[i + 1];
    const double br = bd[i], bi = bd[i + 1];
    ad[i] = ar * br + ai * bi;
    ad[i + 1] = ai * br - ar * bi;
  }
}

void spectralDivideImpl(const Complex* num, const Complex* den, double eps,
                        Complex* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double nr = num[i].real(), ni = num[i].imag();
    const double dr = den[i].real(), di = den[i].imag();
    const double invMag = 1.0 / (dr * dr + di * di + eps);
    out[i] = Complex((nr * dr + ni * di) * invMag,
                     (ni * dr - nr * di) * invMag);
  }
}

double maxNormImpl(const Complex* x, std::size_t n) {
  double best = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = x[i].real(), im = x[i].imag();
    const double nrm = r * r + im * im;
    if (nrm > best) best = nrm;
  }
  return best;
}

// --- Reductions -----------------------------------------------------------

double dotProductImpl(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double sumSquaresImpl(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

double sumImpl(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i];
  return s;
}

void pearsonAccumImpl(const double* a, const double* b, std::size_t n,
                      double ma, double mb, double out[3]) {
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  out[0] = sab;
  out[1] = saa;
  out[2] = sbb;
}

// --- Geometry visibility scan ---------------------------------------------

int visibilityCrossingsImpl(const double* nx, const double* ny,
                            const double* cdot, std::size_t n, double px,
                            double py, VisibilityCrossing* crossings,
                            int maxCrossings) {
  // Single streaming pass: carry g_{i} forward instead of materializing the
  // whole classifier array. The expression is spelled as explicit mul/sub so
  // it stays bitwise-identical to the AVX2 tier (which cannot contract
  // intrinsics into FMAs).
  const auto gAt = [&](std::size_t i) {
    return cdot ? cdot[i] - px * nx[i] - py * ny[i]
                : px * nx[i] + py * ny[i];
  };
  int found = 0;
  const double g0 = gAt(0);
  double gPrev = g0;
  for (std::size_t i = 0; i < n; ++i) {
    const double gNext = i + 1 == n ? g0 : gAt(i + 1);
    if ((gPrev < 0.0) != (gNext < 0.0)) {
      const double denom = gPrev - gNext;
      const double f =
          std::fabs(denom) > 1e-30 ? std::clamp(gPrev / denom, 0.0, 1.0) : 0.5;
      if (found < maxCrossings)
        crossings[found].u = static_cast<double>(i) + f;
      ++found;
    }
    gPrev = gNext;
  }
  return found;
}

}  // namespace

const KernelTable& scalarTable() {
  static const KernelTable t = {
      &ditStagesImpl,
      &difStagesImpl,
      &scaleInPlaceImpl,
      &cmulSplitImpl,
      &cmulInterleavedImpl,
      &cmulConjInterleavedImpl,
      &spectralDivideImpl,
      &maxNormImpl,
      &dotProductImpl,
      &sumSquaresImpl,
      &sumImpl,
      &pearsonAccumImpl,
      &visibilityCrossingsImpl,
  };
  return t;
}

}  // namespace uniq::dsp::kernels::detail
