// AVX2 + FMA tier of the kernel layer. This translation unit is the only
// one compiled with -mavx2 -mfma (see src/dsp/CMakeLists.txt); the
// kernels that must match the scalar tier bit for bit live in
// kernels_avx2_nofma.cpp instead. Neither may be entered unless the
// runtime dispatcher verified CPU support, so no function here re-checks
// cpuid.
//
// Precision notes (the documented ulp story for tests/test_kernels.cpp):
//  - Butterflies and complex multiplies use FMA, so individual elements can
//    differ from the scalar tier by the usual fused-rounding ulp; the FFT
//    cascade amplifies this to ~1e-13 relative at n = 16384. The DIT
//    cascade runs two stages per pass; each element still meets the same
//    butterflies in the same order as with one stage per pass.
//  - The visibility kernel deliberately uses mul+sub (no FMA) so its g
//    values match the scalar tier bit-for-bit on the same inputs, keeping
//    crossing counts — and therefore geometry decisions — identical across
//    dispatch tiers.
//  - Reductions use 4-way split accumulators; the final horizontal combine
//    reorders additions relative to the scalar tier (relative error within
//    ~4 ulp of the condition number of the sum). lagDotProducts gives each
//    lag exactly dotProductImpl's bits.

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

/// len == 2 stage (twiddle-free): adjacent (u, v) pairs become
/// (u + v, u - v).
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

/// One DIT butterfly on four lanes: (u, v) -> (u + v*w, u - v*w), with
/// v*w spelled as the stage loops have always computed it:
/// re = fnmadd(vi, wi, vr*wr), im = fmadd(vi, wr, vr*wi).
inline void butterflyDit(__m256d& ur, __m256d& ui, __m256d& br, __m256d& bi,
                         __m256d wr, __m256d wi) {
  const __m256d vr = _mm256_fnmadd_pd(bi, wi, _mm256_mul_pd(br, wr));
  const __m256d vi = _mm256_fmadd_pd(bi, wr, _mm256_mul_pd(br, wi));
  br = _mm256_sub_pd(ur, vr);
  bi = _mm256_sub_pd(ui, vi);
  ur = _mm256_add_pd(ur, vr);
  ui = _mm256_add_pd(ui, vi);
}

/// The len == 4 DIT stage on one 4-element block held in registers
/// (u = lanes 0-1, v = lanes 2-3, w = the two stage factors twice).
inline void stage4Lanes(__m256d& xr, __m256d& xi, __m256d wr, __m256d wi) {
  const __m256d ur = _mm256_permute2f128_pd(xr, xr, 0x00);
  const __m256d ui = _mm256_permute2f128_pd(xi, xi, 0x00);
  const __m256d br = _mm256_permute2f128_pd(xr, xr, 0x11);
  const __m256d bi = _mm256_permute2f128_pd(xi, xi, 0x11);
  const __m256d vr = _mm256_fnmadd_pd(bi, wi, _mm256_mul_pd(br, wr));
  const __m256d vi = _mm256_fmadd_pd(bi, wr, _mm256_mul_pd(br, wi));
  xr = _mm256_blend_pd(_mm256_add_pd(ur, vr), _mm256_sub_pd(ur, vr), 0xC);
  xi = _mm256_blend_pd(_mm256_add_pd(ui, vi), _mm256_sub_pd(ui, vi), 0xC);
}

/// Stage len == 4 alone (n == 4), or stages 4 and 8 in one pass over
/// 8-element blocks (n >= 8).
void stages4And8Dit(double* re, double* im, std::size_t n, const double* twRe,
                    const double* twIm) {
  const __m256d w4r =
      _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(twRe));
  const __m256d w4i =
      _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(twIm));
  if (n == 4) {
    __m256d xr = _mm256_loadu_pd(re), xi = _mm256_loadu_pd(im);
    stage4Lanes(xr, xi, w4r, w4i);
    _mm256_storeu_pd(re, xr);
    _mm256_storeu_pd(im, xi);
    return;
  }
  const __m256d w8r = _mm256_loadu_pd(twRe + 2);
  const __m256d w8i = _mm256_loadu_pd(twIm + 2);
  for (std::size_t i = 0; i < n; i += 8) {
    __m256d ur = _mm256_loadu_pd(re + i), ui = _mm256_loadu_pd(im + i);
    __m256d br = _mm256_loadu_pd(re + i + 4), bi = _mm256_loadu_pd(im + i + 4);
    stage4Lanes(ur, ui, w4r, w4i);
    stage4Lanes(br, bi, w4r, w4i);
    butterflyDit(ur, ui, br, bi, w8r, w8i);
    _mm256_storeu_pd(re + i, ur);
    _mm256_storeu_pd(im + i, ui);
    _mm256_storeu_pd(re + i + 4, br);
    _mm256_storeu_pd(im + i + 4, bi);
  }
}

/// One multiplying stage `len` (>= 8) over the whole array.
void stageDit(double* re, double* im, std::size_t n, const double* twRe,
              const double* twIm, std::size_t len) {
  const std::size_t half = len / 2;
  const double* wr = twRe + (half - 2);
  const double* wi = twIm + (half - 2);
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; k += 4) {
      const __m256d wrv = _mm256_loadu_pd(wr + k);
      const __m256d wiv = _mm256_loadu_pd(wi + k);
      __m256d ur = _mm256_loadu_pd(re + i + k);
      __m256d ui = _mm256_loadu_pd(im + i + k);
      __m256d br = _mm256_loadu_pd(re + i + k + half);
      __m256d bi = _mm256_loadu_pd(im + i + k + half);
      butterflyDit(ur, ui, br, bi, wrv, wiv);
      _mm256_storeu_pd(re + i + k, ur);
      _mm256_storeu_pd(im + i + k, ui);
      _mm256_storeu_pd(re + i + k + half, br);
      _mm256_storeu_pd(im + i + k + half, bi);
    }
  }
}

/// Stages `len` (>= 8) and 2 * len in one pass: each group of four
/// elements x0..x3 at offsets k, k + len/2, k + len, k + 3*len/2 of a
/// 2*len block takes stage len's butterflies (x0, x1) and (x2, x3), then
/// stage 2*len's (x0, x2) and (x1, x3) — the same butterflies, with the
/// same twiddles and in the same order, as two single-stage passes.
void stagePairDit(double* re, double* im, std::size_t n, const double* twRe,
                  const double* twIm, std::size_t len) {
  const std::size_t half = len / 2;
  const double* w1r = twRe + (half - 2);
  const double* w1i = twIm + (half - 2);
  const double* w2r = twRe + (len - 2);
  const double* w2i = twIm + (len - 2);
  for (std::size_t i = 0; i < n; i += 2 * len) {
    double* r = re + i;
    double* m = im + i;
    for (std::size_t k = 0; k < half; k += 4) {
      __m256d r0 = _mm256_loadu_pd(r + k), i0 = _mm256_loadu_pd(m + k);
      __m256d r1 = _mm256_loadu_pd(r + k + half);
      __m256d i1 = _mm256_loadu_pd(m + k + half);
      __m256d r2 = _mm256_loadu_pd(r + k + len);
      __m256d i2 = _mm256_loadu_pd(m + k + len);
      __m256d r3 = _mm256_loadu_pd(r + k + len + half);
      __m256d i3 = _mm256_loadu_pd(m + k + len + half);
      const __m256d a = _mm256_loadu_pd(w1r + k);
      const __m256d b = _mm256_loadu_pd(w1i + k);
      butterflyDit(r0, i0, r1, i1, a, b);
      butterflyDit(r2, i2, r3, i3, a, b);
      butterflyDit(r0, i0, r2, i2, _mm256_loadu_pd(w2r + k),
                   _mm256_loadu_pd(w2i + k));
      butterflyDit(r1, i1, r3, i3, _mm256_loadu_pd(w2r + k + half),
                   _mm256_loadu_pd(w2i + k + half));
      _mm256_storeu_pd(r + k, r0);
      _mm256_storeu_pd(m + k, i0);
      _mm256_storeu_pd(r + k + half, r1);
      _mm256_storeu_pd(m + k + half, i1);
      _mm256_storeu_pd(r + k + len, r2);
      _mm256_storeu_pd(m + k + len, i2);
      _mm256_storeu_pd(r + k + len + half, r3);
      _mm256_storeu_pd(m + k + len + half, i3);
    }
  }
}

void ditStagesImpl(double* re, double* im, std::size_t n, const double* twRe,
                   const double* twIm, std::size_t firstLen) {
  if (n < 2) return;
  if (firstLen <= 2) stage2(re, im, n);
  std::size_t len = std::max<std::size_t>(firstLen, 8);
  if (firstLen <= 4 && n >= 4) {
    stages4And8Dit(re, im, n, twRe, twIm);
    len = 16;
  }
  // Two stages per pass over the data, then the odd one out.
  for (; 2 * len <= n; len <<= 2) stagePairDit(re, im, n, twRe, twIm, len);
  if (len <= n) stageDit(re, im, n, twRe, twIm, len);
}

// --- Complex pointwise ----------------------------------------------------

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

/// dotProductImpl's tail from element i to n (fewer than 8 elements),
/// spelled out as GCC has always compiled the plain `s += a[i] * b[i]`
/// loop in this -mfma file: each product rounded and then added, in order,
/// except an odd count's last element, which is fused. The sd intrinsics
/// are builtins the compiler cannot re-contract.
inline double dotTail(const double* a, const double* b, std::size_t i,
                      std::size_t n, double s) {
  __m128d acc = _mm_set_sd(s);
  const std::size_t unfused = i + ((n - i) & ~std::size_t{1});
  for (; i < unfused; ++i)
    acc = _mm_add_sd(acc, _mm_mul_sd(_mm_load_sd(a + i), _mm_load_sd(b + i)));
  if (i < n) acc = _mm_fmadd_sd(_mm_load_sd(a + i), _mm_load_sd(b + i), acc);
  return _mm_cvtsd_f64(acc);
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
  return dotTail(a, b, i, n, hsum(_mm256_add_pd(acc0, acc1)));
}

void lagDotProductsImpl(const double* a, std::size_t la, const double* b,
                        std::size_t lb, long lo, long hi, double* out) {
  // Four lags at a time: their dotProductImpl accumulator pairs advance
  // together over the 8-blocks all four have (eight independent FMA
  // chains instead of two), then each lag finishes its own blocks, sum and
  // tail exactly as dotProductImpl would.
  constexpr int kGroup = 4;
  const long na = static_cast<long>(la), nb = static_cast<long>(lb);
  for (long first = lo; first <= hi; first += kGroup) {
    const int count = static_cast<int>(std::min<long>(kGroup, hi - first + 1));
    const double* pa[kGroup];
    const double* pb[kGroup];
    std::size_t len[kGroup];
    std::size_t common = ~std::size_t{0};
    for (int g = 0; g < count; ++g) {
      const long lag = first + g;
      const long t0 = std::max(0L, -lag);
      const long t1 = std::min(na, nb - lag);
      len[g] = t1 > t0 ? static_cast<std::size_t>(t1 - t0) : 0;
      pa[g] = a + t0;
      pb[g] = b + t0 + lag;
      common = std::min(common, len[g] / 8 * 8);
    }
    __m256d acc0[kGroup], acc1[kGroup];
    for (int g = 0; g < count; ++g)
      acc0[g] = acc1[g] = _mm256_setzero_pd();
    for (std::size_t i = 0; i < common; i += 8) {
      for (int g = 0; g < count; ++g) {
        acc0[g] = _mm256_fmadd_pd(_mm256_loadu_pd(pa[g] + i),
                                  _mm256_loadu_pd(pb[g] + i), acc0[g]);
        acc1[g] = _mm256_fmadd_pd(_mm256_loadu_pd(pa[g] + i + 4),
                                  _mm256_loadu_pd(pb[g] + i + 4), acc1[g]);
      }
    }
    for (int g = 0; g < count; ++g) {
      if (len[g] == 0) {
        out[first + g - lo] = 0.0;
        continue;
      }
      std::size_t i = common;
      for (; i + 8 <= len[g]; i += 8) {
        acc0[g] = _mm256_fmadd_pd(_mm256_loadu_pd(pa[g] + i),
                                  _mm256_loadu_pd(pb[g] + i), acc0[g]);
        acc1[g] = _mm256_fmadd_pd(_mm256_loadu_pd(pa[g] + i + 4),
                                  _mm256_loadu_pd(pb[g] + i + 4), acc1[g]);
      }
      out[first + g - lo] = dotTail(pa[g], pb[g], i, len[g],
                                    hsum(_mm256_add_pd(acc0[g], acc1[g])));
    }
  }
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
      &avx2_nofma::gatherBitReversed,
      &avx2_nofma::interleaveScaled,
      &avx2_nofma::rfftSplit,
      &avx2_nofma::irfftMerge,
      &avx2_nofma::magnitudes,
      &cmulInterleavedImpl,
      &cmulConjInterleavedImpl,
      &avx2_nofma::phatWeight,
      &spectralDivideImpl,
      &maxNormImpl,
      &dotProductImpl,
      &lagDotProductsImpl,
      &avx2_nofma::firFilter,
      &sumSquaresImpl,
      &visibilityCrossingsImpl,
  };
  return t;
}

}  // namespace uniq::dsp::kernels::detail

#endif  // UNIQ_HAVE_AVX2
