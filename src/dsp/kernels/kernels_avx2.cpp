// AVX2 + FMA tier of the kernel layer. This translation unit is the only
// one compiled with -mavx2 -mfma (see src/dsp/CMakeLists.txt); it must
// never be entered unless the runtime dispatcher verified CPU support, so
// no function here re-checks cpuid.
//
// Precision notes (the documented ulp story for tests/test_kernels.cpp):
//  - Butterflies and complex multiplies use FMA, so individual elements can
//    differ from the scalar tier by the usual fused-rounding ulp; the FFT
//    cascade amplifies this to ~1e-13 relative at n = 16384.
//  - The visibility kernel deliberately uses mul+sub (no FMA) so its g
//    values match the scalar tier bit-for-bit on the same inputs, keeping
//    crossing counts — and therefore geometry decisions — identical across
//    dispatch tiers.
//  - Reductions use 4-way split accumulators; the final horizontal combine
//    reorders additions relative to the scalar tier (relative error within
//    ~4 ulp of the condition number of the sum).

#if defined(UNIQ_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>

#include "dsp/kernels/kernel_table.h"

namespace uniq::dsp::kernels::detail {

namespace {

using Complex = std::complex<double>;

// --- FFT butterfly cascades -----------------------------------------------

/// len == 2 stage (twiddle-free) in both DIT and DIF cascades: adjacent
/// (u, v) pairs become (u + v, u - v).
inline void stage2(double* re, double* im, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(re + i);  // u0 v0 u1 v1
    const __m256d m = _mm256_loadu_pd(im + i);
    const __m256d rs = _mm256_blend_pd(_mm256_hadd_pd(r, r),
                                       _mm256_hsub_pd(r, r), 0xA);
    const __m256d ms = _mm256_blend_pd(_mm256_hadd_pd(m, m),
                                       _mm256_hsub_pd(m, m), 0xA);
    _mm256_storeu_pd(re + i, rs);
    _mm256_storeu_pd(im + i, ms);
  }
  for (; i + 1 < n; i += 2) {
    const double ur = re[i], ui = im[i];
    const double vr = re[i + 1], vi = im[i + 1];
    re[i] = ur + vr;
    im[i] = ui + vi;
    re[i + 1] = ur - vr;
    im[i + 1] = ui - vi;
  }
}

/// len == 4 DIT stage via 128-bit lanes (half == 2 butterflies per block).
inline void stage4Dit(double* re, double* im, std::size_t n,
                      const double* twRe, const double* twIm) {
  const __m128d wr = _mm_loadu_pd(twRe);  // (1, 0/∓1) exact factors
  const __m128d wi = _mm_loadu_pd(twIm);
  for (std::size_t i = 0; i + 3 < n; i += 4) {
    const __m128d br = _mm_loadu_pd(re + i + 2);
    const __m128d bi = _mm_loadu_pd(im + i + 2);
    const __m128d vr = _mm_fnmadd_pd(bi, wi, _mm_mul_pd(br, wr));
    const __m128d vi = _mm_fmadd_pd(bi, wr, _mm_mul_pd(br, wi));
    const __m128d ur = _mm_loadu_pd(re + i);
    const __m128d ui = _mm_loadu_pd(im + i);
    _mm_storeu_pd(re + i, _mm_add_pd(ur, vr));
    _mm_storeu_pd(im + i, _mm_add_pd(ui, vi));
    _mm_storeu_pd(re + i + 2, _mm_sub_pd(ur, vr));
    _mm_storeu_pd(im + i + 2, _mm_sub_pd(ui, vi));
  }
}

/// len == 4 DIF stage: u' = u + v, v' = (u - v) * w.
inline void stage4Dif(double* re, double* im, std::size_t n,
                      const double* twRe, const double* twIm) {
  const __m128d wr = _mm_loadu_pd(twRe);
  const __m128d wi = _mm_loadu_pd(twIm);
  for (std::size_t i = 0; i + 3 < n; i += 4) {
    const __m128d ur = _mm_loadu_pd(re + i);
    const __m128d ui = _mm_loadu_pd(im + i);
    const __m128d br = _mm_loadu_pd(re + i + 2);
    const __m128d bi = _mm_loadu_pd(im + i + 2);
    const __m128d tr = _mm_sub_pd(ur, br);
    const __m128d ti = _mm_sub_pd(ui, bi);
    _mm_storeu_pd(re + i, _mm_add_pd(ur, br));
    _mm_storeu_pd(im + i, _mm_add_pd(ui, bi));
    _mm_storeu_pd(re + i + 2, _mm_fnmadd_pd(ti, wi, _mm_mul_pd(tr, wr)));
    _mm_storeu_pd(im + i + 2, _mm_fmadd_pd(ti, wr, _mm_mul_pd(tr, wi)));
  }
}

void ditStagesImpl(double* re, double* im, std::size_t n, const double* twRe,
                   const double* twIm, std::size_t firstLen) {
  if (n < 2) return;
  if (firstLen <= 2) stage2(re, im, n);
  if (n >= 4 && firstLen <= 4) stage4Dit(re, im, n, twRe, twIm);
  for (std::size_t len = std::max<std::size_t>(firstLen, 8); len <= n;
       len <<= 1) {
    const std::size_t half = len / 2;  // >= 4: full 256-bit butterflies
    const double* wr = twRe + (half - 2);
    const double* wi = twIm + (half - 2);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; k += 4) {
        const __m256d wrv = _mm256_loadu_pd(wr + k);
        const __m256d wiv = _mm256_loadu_pd(wi + k);
        const __m256d br = _mm256_loadu_pd(re + i + k + half);
        const __m256d bi = _mm256_loadu_pd(im + i + k + half);
        const __m256d vr = _mm256_fnmadd_pd(bi, wiv, _mm256_mul_pd(br, wrv));
        const __m256d vi = _mm256_fmadd_pd(bi, wrv, _mm256_mul_pd(br, wiv));
        const __m256d ur = _mm256_loadu_pd(re + i + k);
        const __m256d ui = _mm256_loadu_pd(im + i + k);
        _mm256_storeu_pd(re + i + k, _mm256_add_pd(ur, vr));
        _mm256_storeu_pd(im + i + k, _mm256_add_pd(ui, vi));
        _mm256_storeu_pd(re + i + k + half, _mm256_sub_pd(ur, vr));
        _mm256_storeu_pd(im + i + k + half, _mm256_sub_pd(ui, vi));
      }
    }
  }
}

void difStagesImpl(double* re, double* im, std::size_t n, const double* twRe,
                   const double* twIm) {
  if (n < 2) return;
  for (std::size_t len = n; len >= 8; len >>= 1) {
    const std::size_t half = len / 2;
    const double* wr = twRe + (half - 2);
    const double* wi = twIm + (half - 2);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; k += 4) {
        const __m256d wrv = _mm256_loadu_pd(wr + k);
        const __m256d wiv = _mm256_loadu_pd(wi + k);
        const __m256d ur = _mm256_loadu_pd(re + i + k);
        const __m256d ui = _mm256_loadu_pd(im + i + k);
        const __m256d br = _mm256_loadu_pd(re + i + k + half);
        const __m256d bi = _mm256_loadu_pd(im + i + k + half);
        const __m256d tr = _mm256_sub_pd(ur, br);
        const __m256d ti = _mm256_sub_pd(ui, bi);
        _mm256_storeu_pd(re + i + k, _mm256_add_pd(ur, br));
        _mm256_storeu_pd(im + i + k, _mm256_add_pd(ui, bi));
        _mm256_storeu_pd(re + i + k + half,
                         _mm256_fnmadd_pd(ti, wiv, _mm256_mul_pd(tr, wrv)));
        _mm256_storeu_pd(im + i + k + half,
                         _mm256_fmadd_pd(ti, wrv, _mm256_mul_pd(tr, wiv)));
      }
    }
  }
  if (n >= 4) stage4Dif(re, im, n, twRe, twIm);
  stage2(re, im, n);
}

void scaleInPlaceImpl(double* x, std::size_t n, double s) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  for (; i < n; ++i) x[i] *= s;
}

// --- Complex pointwise ----------------------------------------------------

void cmulSplitImpl(double* aRe, double* aIm, const double* bRe,
                   const double* bIm, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ar = _mm256_loadu_pd(aRe + i);
    const __m256d ai = _mm256_loadu_pd(aIm + i);
    const __m256d br = _mm256_loadu_pd(bRe + i);
    const __m256d bi = _mm256_loadu_pd(bIm + i);
    _mm256_storeu_pd(aRe + i, _mm256_fnmadd_pd(ai, bi, _mm256_mul_pd(ar, br)));
    _mm256_storeu_pd(aIm + i, _mm256_fmadd_pd(ai, br, _mm256_mul_pd(ar, bi)));
  }
  for (; i < n; ++i) {
    const double ar = aRe[i], ai = aIm[i];
    const double br = bRe[i], bi = bIm[i];
    aRe[i] = ar * br - ai * bi;
    aIm[i] = ar * bi + ai * br;
  }
}

void cmulInterleavedImpl(Complex* a, const Complex* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(ad + 2 * i);
    const __m256d bv = _mm256_loadu_pd(bd + 2 * i);
    const __m256d are = _mm256_movedup_pd(av);        // ar ar
    const __m256d aim = _mm256_permute_pd(av, 0xF);   // ai ai
    const __m256d bsw = _mm256_permute_pd(bv, 0x5);   // bi br
    // even: ar*br - ai*bi ; odd: ar*bi + ai*br
    _mm256_storeu_pd(
        ad + 2 * i,
        _mm256_fmaddsub_pd(are, bv, _mm256_mul_pd(aim, bsw)));
  }
  for (; i < n; ++i) a[i] *= b[i];
}

void cmulConjInterleavedImpl(Complex* a, const Complex* b, std::size_t n) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(ad + 2 * i);
    const __m256d bv = _mm256_loadu_pd(bd + 2 * i);
    // a * conj(b) == conj(b) * a: broadcast b's components instead so the
    // fmsubadd sign pattern lands on (+, -).
    const __m256d bre = _mm256_movedup_pd(bv);        // br br
    const __m256d bim = _mm256_permute_pd(bv, 0xF);   // bi bi
    const __m256d asw = _mm256_permute_pd(av, 0x5);   // ai ar
    // even: br*ar + bi*ai ; odd: br*ai - bi*ar
    _mm256_storeu_pd(
        ad + 2 * i,
        _mm256_fmsubadd_pd(bre, av, _mm256_mul_pd(bim, asw)));
  }
  for (; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    a[i] = Complex(ar * br + ai * bi, ai * br - ar * bi);
  }
}

void spectralDivideImpl(const Complex* num, const Complex* den, double eps,
                        Complex* out, std::size_t n) {
  const auto* nd = reinterpret_cast<const double*>(num);
  const auto* dd = reinterpret_cast<const double*>(den);
  auto* od = reinterpret_cast<double*>(out);
  const __m256d epsv = _mm256_set1_pd(eps);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d nv = _mm256_loadu_pd(nd + 2 * i);
    const __m256d dv = _mm256_loadu_pd(dd + 2 * i);
    const __m256d dre = _mm256_movedup_pd(dv);
    const __m256d dim = _mm256_permute_pd(dv, 0xF);
    const __m256d nsw = _mm256_permute_pd(nv, 0x5);
    // num * conj(den): even nr*dr + ni*di ; odd ni*dr - nr*di.
    const __m256d cross =
        _mm256_fmsubadd_pd(dre, nv, _mm256_mul_pd(dim, nsw));
    const __m256d d2 = _mm256_mul_pd(dv, dv);
    const __m256d mag =
        _mm256_add_pd(_mm256_hadd_pd(d2, d2), epsv);  // |d|^2 per lane pair
    _mm256_storeu_pd(od + 2 * i, _mm256_div_pd(cross, mag));
  }
  for (; i < n; ++i) {
    const double nr = num[i].real(), ni = num[i].imag();
    const double dr = den[i].real(), di = den[i].imag();
    const double mag = dr * dr + di * di + eps;
    out[i] = Complex((nr * dr + ni * di) / mag, (ni * dr - nr * di) / mag);
  }
}

double maxNormImpl(const Complex* x, std::size_t n) {
  const auto* xd = reinterpret_cast<const double*>(x);
  __m256d best = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(xd + 2 * i);
    const __m256d b = _mm256_loadu_pd(xd + 2 * i + 4);
    const __m256d norms =
        _mm256_hadd_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
    best = _mm256_max_pd(best, norms);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, best);
  double out = std::max(std::max(lanes[0], lanes[1]),
                        std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    const double r = x[i].real(), im = x[i].imag();
    out = std::max(out, r * r + im * im);
  }
  return out;
}

// --- Reductions -----------------------------------------------------------

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

double dotProductImpl(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double sumSquaresImpl(const double* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

double sumImpl(const double* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(x + i + 4));
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

void pearsonAccumImpl(const double* a, const double* b, std::size_t n,
                      double ma, double mb, double out[3]) {
  const __m256d mav = _mm256_set1_pd(ma);
  const __m256d mbv = _mm256_set1_pd(mb);
  __m256d sab = _mm256_setzero_pd();
  __m256d saa = _mm256_setzero_pd();
  __m256d sbb = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d da = _mm256_sub_pd(_mm256_loadu_pd(a + i), mav);
    const __m256d db = _mm256_sub_pd(_mm256_loadu_pd(b + i), mbv);
    sab = _mm256_fmadd_pd(da, db, sab);
    saa = _mm256_fmadd_pd(da, da, saa);
    sbb = _mm256_fmadd_pd(db, db, sbb);
  }
  double rab = hsum(sab), raa = hsum(saa), rbb = hsum(sbb);
  for (; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    rab += da * db;
    raa += da * da;
    rbb += db * db;
  }
  out[0] = rab;
  out[1] = raa;
  out[2] = rbb;
}

// --- Geometry visibility scan ---------------------------------------------

int visibilityCrossingsImpl(const double* nx, const double* ny,
                            const double* cdot, std::size_t n, double px,
                            double py, VisibilityCrossing* crossings,
                            int maxCrossings) {
  // Fused single pass: each 4-lane block computes g in registers, reduces
  // it to a sign mask, and xors against the previous lane's sign bit
  // carried between blocks — no materialized g array, no scratch. Blocks
  // with no crossing (the vast majority) never touch memory beyond the
  // three table loads. mul+sub (no FMA) on purpose — bitwise identical to
  // the scalar tier, so both tiers count the same crossings.
  //
  // gAt recomputes a single g value at the (rare) hit indices. It is
  // spelled in SSE scalar intrinsics rather than plain C arithmetic so the
  // compiler cannot contract it into an FMA in this -mfma TU, which would
  // de-synchronize it from the vector pass that flagged the crossing.
  const auto gAt = [&](std::size_t idx) {
    const __m128d a = _mm_mul_sd(_mm_set_sd(px), _mm_load_sd(nx + idx));
    const __m128d b = _mm_mul_sd(_mm_set_sd(py), _mm_load_sd(ny + idx));
    const __m128d r = cdot
                          ? _mm_sub_sd(_mm_sub_sd(_mm_load_sd(cdot + idx), a),
                                       b)
                          : _mm_add_sd(a, b);
    return _mm_cvtsd_f64(r);
  };
  int found = 0;
  const auto emit = [&](std::size_t idx) {
    const double gPrev = gAt(idx);
    const double gNext = gAt(idx + 1 == n ? 0 : idx + 1);
    const double denom = gPrev - gNext;
    const double f =
        std::fabs(denom) > 1e-30 ? std::clamp(gPrev / denom, 0.0, 1.0) : 0.5;
    if (found < maxCrossings)
      crossings[found].u = static_cast<double>(idx) + f;
    ++found;
  };

  const __m256d pxv = _mm256_set1_pd(px);
  const __m256d pyv = _mm256_set1_pd(py);
  const __m256d zero = _mm256_setzero_pd();
  // Sign bit of g[i - 1]. Seeding it with sign(g[0]) makes the first
  // block's k == 0 pair ((-1, 0), which does not exist — the wrap pair
  // (n-1, 0) is handled by the tail) xor to zero.
  unsigned prevBit = gAt(0) < 0.0 ? 1u : 0u;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d g;
    if (cdot) {
      const __m256d t =
          _mm256_sub_pd(_mm256_loadu_pd(cdot + i),
                        _mm256_mul_pd(pxv, _mm256_loadu_pd(nx + i)));
      g = _mm256_sub_pd(t, _mm256_mul_pd(pyv, _mm256_loadu_pd(ny + i)));
    } else {
      g = _mm256_add_pd(_mm256_mul_pd(pxv, _mm256_loadu_pd(nx + i)),
                        _mm256_mul_pd(pyv, _mm256_loadu_pd(ny + i)));
    }
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(g, zero, _CMP_LT_OQ)));
    // Bit k of `hits` flags a sign change across pair (i + k - 1, i + k).
    unsigned hits = (((mask << 1) | prevBit) ^ mask) & 0xFu;
    prevBit = mask >> 3;
    while (hits) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(hits));
      hits &= hits - 1;
      emit(i + lane - 1);
    }
  }
  // Tail pairs (i - 1, i) .. (n - 2, n - 1), then the wrap pair (n - 1, 0).
  for (std::size_t idx = i > 0 ? i - 1 : 0; idx < n; ++idx) {
    const double gPrev = gAt(idx);
    const double gNext = gAt(idx + 1 == n ? 0 : idx + 1);
    if ((gPrev < 0.0) != (gNext < 0.0)) emit(idx);
  }
  return found;
}

}  // namespace

const KernelTable& avx2Table() {
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

#endif  // UNIQ_HAVE_AVX2
