// AVX2 kernels whose contract is the scalar tier's exact bits. This
// translation unit is compiled with -mavx2 but without -mfma (see
// src/dsp/CMakeLists.txt): GCC implements _mm256_add_pd and _mm256_mul_pd
// as generic vector arithmetic, so in a file that may emit FMA the default
// -ffp-contract=fast is free to fuse add(x, mul(a, b)) into one rounding.
// Here every multiply and add rounds on its own, in the same order as the
// scalar loop it mirrors, and tests/test_kernels.cpp asserts equality with
// ==. Like kernels_avx2.cpp, it is only entered after the dispatcher
// verified CPU support.

#if defined(UNIQ_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "dsp/kernels/kernel_table.h"

namespace uniq::dsp::kernels::detail::avx2_nofma {

namespace {

using Complex = std::complex<double>;

/// Lanes (x3, x2, x1, x0) of x.
inline __m256d reversed(__m256d x) { return _mm256_permute4x64_pd(x, 0x1B); }

/// Store split lanes re/im (four values each) as four interleaved complex
/// values at out.
inline void storeInterleaved(double* out, __m256d re, __m256d im) {
  const __m256d lo = _mm256_unpacklo_pd(re, im);  // r0 i0 r2 i2
  const __m256d hi = _mm256_unpackhi_pd(re, im);  // r1 i1 r3 i3
  _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
  _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}

}  // namespace

void gatherBitReversed(const Complex* in, const std::uint32_t* rev,
                       std::size_t n, double* re, double* im) {
  const std::size_t h = n / 2;
  const auto* d = reinterpret_cast<const double*>(in);
  // Two output pairs per step: u and v of pairs t and t + 1 share one
  // register each as (ur, ui) lanes, so the sums and differences need one
  // add and one sub, and unpacking lands them in (2t .. 2t+3) order.
  std::size_t t = 0;
  for (; t + 2 <= h; t += 2) {
    const std::size_t j0 = rev[2 * t], j1 = rev[2 * t + 2];
    const __m256d u = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(d + 2 * j0)),
        _mm_loadu_pd(d + 2 * j1), 1);
    const __m256d v = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(d + 2 * (j0 + h))),
        _mm_loadu_pd(d + 2 * (j1 + h)), 1);
    const __m256d sum = _mm256_add_pd(u, v);
    const __m256d dif = _mm256_sub_pd(u, v);
    _mm256_storeu_pd(re + 2 * t, _mm256_unpacklo_pd(sum, dif));
    _mm256_storeu_pd(im + 2 * t, _mm256_unpackhi_pd(sum, dif));
  }
  for (; t < h; ++t) {
    const std::size_t j = rev[2 * t];
    const double ur = d[2 * j], ui = d[2 * j + 1];
    const double vr = d[2 * (j + h)], vi = d[2 * (j + h) + 1];
    re[2 * t] = ur + vr;
    im[2 * t] = ui + vi;
    re[2 * t + 1] = ur - vr;
    im[2 * t + 1] = ui - vi;
  }
}

void interleaveScaled(const double* re, const double* im, std::size_t n,
                      double s, double* out) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4)
    storeInterleaved(out + 2 * k, _mm256_mul_pd(_mm256_loadu_pd(re + k), sv),
                     _mm256_mul_pd(_mm256_loadu_pd(im + k), sv));
  for (; k < n; ++k) {
    out[2 * k] = re[k] * s;
    out[2 * k + 1] = im[k] * s;
  }
}

void rfftSplit(const double* zRe, const double* zIm, std::size_t h,
               const double* wr, const double* wi, Complex* out) {
  out[0] = Complex(zRe[0] + zIm[0], 0.0);
  out[h] = Complex(zRe[0] - zIm[0], 0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d minusHalf = _mm256_set1_pd(-0.5);
  auto* od = reinterpret_cast<double*>(out);
  std::size_t k = 1;
  // Bins k .. k+3 pair with h-k .. h-k-3: load that run ascending and
  // reverse it. Each lane repeats the scalar tier's expression tree.
  for (; k + 4 <= h; k += 4) {
    const __m256d ar = _mm256_loadu_pd(zRe + k);
    const __m256d ai = _mm256_loadu_pd(zIm + k);
    const __m256d br = reversed(_mm256_loadu_pd(zRe + h - k - 3));
    const __m256d bi = reversed(_mm256_loadu_pd(zIm + h - k - 3));
    const __m256d er = _mm256_mul_pd(half, _mm256_add_pd(ar, br));
    const __m256d ei = _mm256_mul_pd(half, _mm256_sub_pd(ai, bi));
    const __m256d odr = _mm256_mul_pd(half, _mm256_add_pd(ai, bi));
    const __m256d odi = _mm256_mul_pd(minusHalf, _mm256_sub_pd(ar, br));
    const __m256d wrv = _mm256_loadu_pd(wr + k);
    const __m256d wiv = _mm256_loadu_pd(wi + k);
    const __m256d xr = _mm256_sub_pd(_mm256_add_pd(er, _mm256_mul_pd(odr, wrv)),
                                     _mm256_mul_pd(odi, wiv));
    const __m256d xi = _mm256_add_pd(_mm256_add_pd(ei, _mm256_mul_pd(odr, wiv)),
                                     _mm256_mul_pd(odi, wrv));
    storeInterleaved(od + 2 * k, xr, xi);
  }
  for (; k < h; ++k) {
    const double er = 0.5 * (zRe[k] + zRe[h - k]);
    const double ei = 0.5 * (zIm[k] - zIm[h - k]);
    const double odr = 0.5 * (zIm[k] + zIm[h - k]);
    const double odi = -0.5 * (zRe[k] - zRe[h - k]);
    out[k] = Complex(er + odr * wr[k] - odi * wi[k],
                     ei + odr * wi[k] + odi * wr[k]);
  }
}

void irfftMerge(const Complex* x, std::size_t h, const double* wr,
                const double* wi, Complex* z) {
  const auto* xd = reinterpret_cast<const double*>(x);
  auto* zd = reinterpret_cast<double*>(z);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d signBit = _mm256_set1_pd(-0.0);
  std::size_t k = 0;
  // Lanes run in the order (k, k+2, k+1, k+3) that unpacking interleaved
  // pairs yields; the twiddles are permuted to match, and unpacking the
  // results restores ascending order. Bins h-k .. h-k-3 come from the
  // ascending run h-k-3 .. h-k, whose unpacked order is reversed.
  for (; k + 4 <= h; k += 4) {
    const __m256d a0 = _mm256_loadu_pd(xd + 2 * k);
    const __m256d a1 = _mm256_loadu_pd(xd + 2 * k + 4);
    const __m256d b0 = _mm256_loadu_pd(xd + 2 * (h - k - 3));
    const __m256d b1 = _mm256_loadu_pd(xd + 2 * (h - k - 3) + 4);
    const __m256d xkr = _mm256_unpacklo_pd(a0, a1);
    const __m256d xki = _mm256_unpackhi_pd(a0, a1);
    const __m256d xnr = reversed(_mm256_unpacklo_pd(b0, b1));
    const __m256d xni = _mm256_xor_pd(reversed(_mm256_unpackhi_pd(b0, b1)),
                                      signBit);
    const __m256d wrv = _mm256_permute4x64_pd(_mm256_loadu_pd(wr + k), 0xD8);
    const __m256d wiv = _mm256_permute4x64_pd(_mm256_loadu_pd(wi + k), 0xD8);
    const __m256d er = _mm256_mul_pd(half, _mm256_add_pd(xkr, xnr));
    const __m256d ei = _mm256_mul_pd(half, _mm256_add_pd(xki, xni));
    const __m256d dr = _mm256_mul_pd(half, _mm256_sub_pd(xkr, xnr));
    const __m256d di = _mm256_mul_pd(half, _mm256_sub_pd(xki, xni));
    const __m256d odr =
        _mm256_sub_pd(_mm256_mul_pd(dr, wrv), _mm256_mul_pd(di, wiv));
    const __m256d odi =
        _mm256_add_pd(_mm256_mul_pd(dr, wiv), _mm256_mul_pd(di, wrv));
    const __m256d zr = _mm256_sub_pd(er, odi);
    const __m256d zi = _mm256_add_pd(ei, odr);
    _mm256_storeu_pd(zd + 2 * k, _mm256_unpacklo_pd(zr, zi));
    _mm256_storeu_pd(zd + 2 * k + 4, _mm256_unpackhi_pd(zr, zi));
  }
  for (; k < h; ++k) {
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

void magnitudes(const Complex* x, std::size_t n, double* out) {
  const auto* xd = reinterpret_cast<const double*>(x);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d a = _mm256_loadu_pd(xd + 2 * k);      // r0 i0 r1 i1
    const __m256d b = _mm256_loadu_pd(xd + 2 * k + 4);  // r2 i2 r3 i3
    // hadd pairs each re^2 with its own im^2: lanes (0, 2, 1, 3).
    const __m256d norms =
        _mm256_hadd_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
    _mm256_storeu_pd(out + k,
                     _mm256_permute4x64_pd(_mm256_sqrt_pd(norms), 0xD8));
  }
  for (; k < n; ++k) out[k] = std::sqrt(std::norm(x[k]));
}

void phatWeight(Complex* a, const Complex* b, std::size_t n,
                double minMagnitude) {
  auto* ad = reinterpret_cast<double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  const __m256d minMag = _mm256_set1_pd(minMagnitude);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    // Bins k, k+1 in x0 / y0 and k+2, k+3 in x1 / y1, each (re, im, re, im).
    const __m256d x0 = _mm256_loadu_pd(ad + 2 * k);
    const __m256d x1 = _mm256_loadu_pd(ad + 2 * k + 4);
    const __m256d y0 = _mm256_loadu_pd(bd + 2 * k);
    const __m256d y1 = _mm256_loadu_pd(bd + 2 * k + 4);
    // hadd of (ar*br, ai*bi) gives re; hsub of (ai*br, ar*bi) gives im, in
    // bin order (k, k+2, k+1, k+3).
    const __m256d re =
        _mm256_hadd_pd(_mm256_mul_pd(x0, y0), _mm256_mul_pd(x1, y1));
    const __m256d im =
        _mm256_hsub_pd(_mm256_mul_pd(_mm256_permute_pd(x0, 0x5), y0),
                       _mm256_mul_pd(_mm256_permute_pd(x1, 0x5), y1));
    const __m256d mag = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im)));
    const __m256d keep = _mm256_cmp_pd(mag, minMag, _CMP_GT_OQ);
    const __m256d wr = _mm256_and_pd(keep, _mm256_div_pd(re, mag));
    const __m256d wi = _mm256_and_pd(keep, _mm256_div_pd(im, mag));
    // unpacklo/hi pair lanes (0, 2) and (1, 3): bins (k, k+1), (k+2, k+3).
    _mm256_storeu_pd(ad + 2 * k, _mm256_unpacklo_pd(wr, wi));
    _mm256_storeu_pd(ad + 2 * k + 4, _mm256_unpackhi_pd(wr, wi));
  }
  for (; k < n; ++k) {
    const double ar = a[k].real(), ai = a[k].imag();
    const double br = b[k].real(), bi = b[k].imag();
    const double re = ar * br + ai * bi;
    const double im = ai * br - ar * bi;
    const double mag = std::sqrt(re * re + im * im);
    a[k] = mag > minMagnitude ? Complex(re / mag, im / mag) : Complex(0, 0);
  }
}

void firFilter(const double* x, const double* w, std::size_t taps,
               std::size_t count, double* out) {
  // Outputs t .. t+15 in four registers: each lane's sum runs over j in
  // ascending order from 0.0, as the scalar loop's does, while the four
  // independent chains hide the add latency.
  std::size_t t = 0;
  for (; t + 16 <= count; t += 16) {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    const double* p = x + t;
    for (std::size_t j = 0; j < taps; ++j) {
      const __m256d wj = _mm256_broadcast_sd(w + j);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p + j), wj));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p + j + 4), wj));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p + j + 8), wj));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p + j + 12), wj));
    }
    _mm256_storeu_pd(out + t, a0);
    _mm256_storeu_pd(out + t + 4, a1);
    _mm256_storeu_pd(out + t + 8, a2);
    _mm256_storeu_pd(out + t + 12, a3);
  }
  for (; t + 4 <= count; t += 4) {
    __m256d a0 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < taps; ++j)
      a0 = _mm256_add_pd(
          a0, _mm256_mul_pd(_mm256_loadu_pd(x + t + j), _mm256_broadcast_sd(w + j)));
    _mm256_storeu_pd(out + t, a0);
  }
  for (; t < count; ++t) {
    double acc = 0.0;
    for (std::size_t j = 0; j < taps; ++j) acc += x[t + j] * w[j];
    out[t] = acc;
  }
}

}  // namespace uniq::dsp::kernels::detail::avx2_nofma

#endif  // UNIQ_HAVE_AVX2
