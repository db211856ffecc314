// Portable scalar tier of the kernel layer. Every kernel here is the
// reference implementation the SIMD tiers are tested against (bitwise or
// ulp-bounded equality, see tests/test_kernels.cpp). Loops are written with explicit
// double temporaries — the same form PR 1 found keeps GCC from emitting
// hybrid packed/scalar code with stack round-trips on the butterflies.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>

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

// --- Transform packing -----------------------------------------------------

void gatherBitReversedImpl(const Complex* in, const std::uint32_t* rev,
                           std::size_t n, double* re, double* im) {
  // One pass replaces deinterleave + permutation + first butterfly stage:
  // the pair written to (2t, 2t+1) reads bit-reversed inputs j and j + n/2,
  // and the len == 2 twiddle is exactly 1.
  const std::size_t h = n / 2;
  const auto* d = reinterpret_cast<const double*>(in);
  for (std::size_t t = 0; t < h; ++t) {
    const std::size_t j = rev[2 * t];
    const double ur = d[2 * j], ui = d[2 * j + 1];
    const double vr = d[2 * (j + h)], vi = d[2 * (j + h) + 1];
    re[2 * t] = ur + vr;
    im[2 * t] = ui + vi;
    re[2 * t + 1] = ur - vr;
    im[2 * t + 1] = ui - vi;
  }
}

void interleaveScaledImpl(const double* re, const double* im, std::size_t n,
                          double s, double* out) {
  for (std::size_t k = 0; k < n; ++k) {
    out[2 * k] = re[k] * s;
    out[2 * k + 1] = im[k] * s;
  }
}

void rfftSplitImpl(const double* zRe, const double* zIm, std::size_t h,
                   const double* wr, const double* wi, Complex* out) {
  out[0] = Complex(zRe[0] + zIm[0], 0.0);
  out[h] = Complex(zRe[0] - zIm[0], 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const double er = 0.5 * (zRe[k] + zRe[h - k]);
    const double ei = 0.5 * (zIm[k] - zIm[h - k]);
    const double odr = 0.5 * (zIm[k] + zIm[h - k]);
    const double odi = -0.5 * (zRe[k] - zRe[h - k]);
    out[k] = Complex(er + odr * wr[k] - odi * wi[k],
                     ei + odr * wi[k] + odi * wr[k]);
  }
}

void irfftMergeImpl(const Complex* x, std::size_t h, const double* wr,
                    const double* wi, Complex* z) {
  // O[k] = (X[k] - E[k]) * exp(+2*pi*i*k/n) undoes the split twiddle.
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t nk = h - k;
    const double xkr = x[k].real(), xki = x[k].imag();
    const double xnr = x[nk].real(), xni = -x[nk].imag();
    const double er = 0.5 * (xkr + xnr), ei = 0.5 * (xki + xni);
    const double dr = 0.5 * (xkr - xnr), di = 0.5 * (xki - xni);
    const double odr = dr * wr[k] - di * wi[k];
    const double odi = dr * wi[k] + di * wr[k];
    z[k] = Complex(er - odi, ei + odr);
  }
}

void magnitudesImpl(const Complex* x, std::size_t n, double* out) {
  for (std::size_t k = 0; k < n; ++k) out[k] = std::sqrt(std::norm(x[k]));
}

// --- Complex pointwise ----------------------------------------------------

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

void phatWeightImpl(Complex* a, const Complex* b, std::size_t n,
                    double minMagnitude) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    const double re = ar * br + ai * bi;
    const double im = ai * br - ar * bi;
    const double mag = std::sqrt(re * re + im * im);
    a[i] = mag > minMagnitude ? Complex(re / mag, im / mag) : Complex(0, 0);
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

void lagDotProductsImpl(const double* a, std::size_t la, const double* b,
                        std::size_t lb, long lo, long hi, double* out) {
  const long na = static_cast<long>(la), nb = static_cast<long>(lb);
  for (long lag = lo; lag <= hi; ++lag) {
    const long t0 = std::max(0L, -lag);
    const long t1 = std::min(na, nb - lag);
    out[lag - lo] =
        t1 > t0 ? dotProductImpl(a + t0, b + t0 + lag,
                                 static_cast<std::size_t>(t1 - t0))
                : 0.0;
  }
}

void firFilterImpl(const double* x, const double* w, std::size_t taps,
                   std::size_t count, double* out) {
  for (std::size_t t = 0; t < count; ++t) {
    double acc = 0.0;
    for (std::size_t j = 0; j < taps; ++j) acc += x[t + j] * w[j];
    out[t] = acc;
  }
}

double sumSquaresImpl(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
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
      &gatherBitReversedImpl,
      &interleaveScaledImpl,
      &rfftSplitImpl,
      &irfftMergeImpl,
      &magnitudesImpl,
      &cmulInterleavedImpl,
      &cmulConjInterleavedImpl,
      &phatWeightImpl,
      &spectralDivideImpl,
      &maxNormImpl,
      &dotProductImpl,
      &lagDotProductsImpl,
      &firFilterImpl,
      &sumSquaresImpl,
      &visibilityCrossingsImpl,
  };
  return t;
}

}  // namespace uniq::dsp::kernels::detail
