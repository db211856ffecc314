#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>

namespace uniq::dsp::kernels {

/// Instruction-set tier the kernel layer can run on. kAuto is only a
/// request value for overrides; the resolved tier is always a concrete ISA.
enum class Isa { kScalar, kAvx2 };

/// Lowercase name of an ISA tier ("scalar" / "avx2").
const char* isaName(Isa isa);

/// The ISA tier the dispatcher resolved for this process. Resolution
/// happens once, on first use: AVX2+FMA when the build enabled UNIQ_SIMD,
/// the CPU reports both features, and the UNIQ_SIMD environment variable is
/// not set to "scalar"; portable scalar otherwise. The result is exported
/// to the metrics registry as the gauge "kernels.avx2" and the counter
/// "kernels.dispatch.<isa>".
Isa activeIsa();

/// True when this binary contains the AVX2 kernel translation unit (i.e.
/// was configured with UNIQ_SIMD=ON and the compiler supported it).
bool avx2Compiled();

/// Test hook: force a specific tier (kScalar is always valid; kAvx2 only
/// when avx2Compiled() and the CPU supports it — returns false and leaves
/// dispatch unchanged otherwise). Passing activeIsa()'s natural resolution
/// back restores default behaviour. Not thread-safe against concurrent
/// kernel calls; intended for single-threaded test setup.
bool setIsaOverride(Isa isa);

// ---------------------------------------------------------------------------
// FFT butterfly kernels over split re/im (SoA) lanes.
//
// Layout contract shared by FftPlan and the kernels:
//  - `re` and `im` are n-element arrays (64-byte aligned, n a power of two).
//  - Packed per-stage twiddle tables concatenate the len = 4, 8, ..., n
//    stage factors w_len^k = exp(-2*pi*i*k/len), k < len/2; the stage for
//    `len` starts at offset len/2 - 2 (n - 2 entries total). The len == 2
//    stage is twiddle-free and handled inside the kernels; keeping the
//    len == 4 stage in the tables lets one generic vector loop cover every
//    multiplying stage, and its exact 0/±1 factors cost no precision.
//    Inverse transforms pass the conjugate tables; the 1/n scaling stays
//    with the caller.
// ---------------------------------------------------------------------------

/// Decimation-in-time butterfly cascade: input in bit-reversed order,
/// output in natural order. Runs stages len = firstLen (a power of two
/// >= 2), 2 * firstLen, ..., n; firstLen == 2 is the whole cascade. The
/// caller has already produced every length-firstLen/2 sub-transform,
/// either by fusing the len == 2 stage into its gather (firstLen == 4) or
/// because each sub-block holds a single nonzero sample, whose transform is
/// that sample repeated. Runs no stage when firstLen > n.
void ditStagesFrom(double* re, double* im, std::size_t n,
                   const double* stageTwRe, const double* stageTwIm,
                   std::size_t firstLen);

// ---------------------------------------------------------------------------
// Transform packing kernels (FftPlan's gathers, copy-outs and the real-FFT
// split/merge). Every one is mul/add/sub/sqrt only, never fused, so all
// tiers produce the same bits.
// ---------------------------------------------------------------------------

/// Bit-reversal gather of n interleaved complex values (n a power of two
/// >= 2) into split lanes with the len == 2 butterfly fused: for t < n/2,
/// with j = rev[2t], u = in[j] and v = in[j + n/2],
/// (re, im)[2t] = u + v and (re, im)[2t + 1] = u - v. `rev` is the length-n
/// bit-reversal table.
void gatherBitReversed(const std::complex<double>* in,
                       const std::uint32_t* rev, std::size_t n, double* re,
                       double* im);

/// out[2k] = re[k] * s, out[2k + 1] = im[k] * s for k < n: split lanes
/// back to interleaved complex (s == 1 copies them exactly).
void interleaveScaled(const double* re, const double* im, std::size_t n,
                      double s, double* out);

/// rfft split: z = Z[0..h) (h >= 1) is the length-h transform of the real
/// signal's even/odd samples packed as re/im, in split lanes. Writes the
/// half spectrum out[0..h] of the length-2h real transform,
/// X[k] = E[k] + w[k] O[k] with E, O the even/odd parts of Z and
/// w[k] = (wr[k], wi[k]) = exp(-2*pi*i*k/(2h)).
void rfftSplit(const double* zRe, const double* zIm, std::size_t h,
               const double* wr, const double* wi, std::complex<double>* out);

/// Inverse of rfftSplit: from the half spectrum x[0..h] to the h
/// interleaved values z[k] = E[k] + i O[k] whose length-h inverse transform
/// packs the real signal's even/odd samples as re/im. (wr, wi) are the
/// conjugate twiddles exp(+2*pi*i*k/(2h)).
void irfftMerge(const std::complex<double>* x, std::size_t h,
                const double* wr, const double* wi, std::complex<double>* z);

/// out[k] = sqrt(re^2 + im^2) of x[k] (std::abs's value without hypot's
/// rescaling: the square root of std::norm).
void magnitudes(const std::complex<double>* x, std::size_t n, double* out);

// ---------------------------------------------------------------------------
// Complex pointwise kernels.
// ---------------------------------------------------------------------------

/// a[i] *= b[i] over interleaved std::complex<double> arrays (spectral
/// convolution).
void cmulInterleaved(std::complex<double>* a, const std::complex<double>* b,
                     std::size_t n);

/// a[i] *= conj(b[i]) (cross-correlation spectra).
void cmulConjInterleaved(std::complex<double>* a,
                         const std::complex<double>* b, std::size_t n);

/// GCC-PHAT's weighting: a[i] = c / |c| with c = a[i] * conj(b[i]),
/// spelled (ar*br + ai*bi, ai*br - ar*bi) and |c| = sqrt(re^2 + im^2), or 0
/// where |c| <= minMagnitude (or is NaN). Every tier gives the same bits.
void phatWeight(std::complex<double>* a, const std::complex<double>* b,
                std::size_t n, double minMagnitude);

/// out[i] = num[i] * conj(den[i]) / (|den[i]|^2 + eps) — the regularized
/// spectral division at the heart of deconvolution / channel extraction.
/// `out` may be `num` (in-place division).
void spectralDivide(const std::complex<double>* num,
                    const std::complex<double>* den, double eps,
                    std::complex<double>* out, std::size_t n);

/// max_i |x[i]|^2 (regularization floor).
double maxNorm(const std::complex<double>* x, std::size_t n);

// ---------------------------------------------------------------------------
// Correlation / reduction kernels.
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i].
double dotProduct(const double* a, const double* b, std::size_t n);

/// Cross-correlation over a lag window: for lag in [lo, hi],
/// out[lag - lo] = sum_t a[t] * b[t + lag] over the t where both are in
/// range (0 where there is none), each equal bit for bit to dotProduct() of
/// that overlap on the same tier.
void lagDotProducts(const double* a, std::size_t la, const double* b,
                    std::size_t lb, long lo, long hi, double* out);

/// FIR correlation: out[t] = sum_{j < taps} x[t + j] * w[j] for t < count,
/// each summed from 0.0 in ascending j with a separate multiply and add
/// (never fused), so every tier gives the same bits. Reads
/// x[0 .. count + taps - 1).
void firFilter(const double* x, const double* w, std::size_t taps,
               std::size_t count, double* out);

/// sum_i x[i]^2.
double sumSquares(const double* x, std::size_t n);

// ---------------------------------------------------------------------------
// Geometry kernel: boundary visibility scan (the DSF solve hot loop).
// ---------------------------------------------------------------------------

/// One interpolated sign crossing of the visibility classifier
/// g_i = cdot[i] - px*nx[i] - py*ny[i] between samples i and i+1 (wrapping).
struct VisibilityCrossing {
  double u = 0.0;  ///< continuous sample index i + f of the zero crossing
};

/// Scan all n boundary samples (SoA normal tables nx/ny and the
/// precomputed cdot[i] = dot(point_i, normal_i); cdot == nullptr means the
/// plane-wave terminator classifier g = dot(d, n_i) with (px, py) = d).
/// Records the first `maxCrossings` crossings into `crossings` and returns
/// the TOTAL number of sign changes found (callers check == 2). The scan is
/// a single streaming pass; g values are recomputed scalar at the (rare)
/// hit indices with the same mul/sub expression the vector pass used, so
/// the crossing fraction matches the scalar reference exactly:
/// f = clamp(g_i / (g_i - g_{i+1}), 0, 1), or 0.5 when
/// |g_i - g_{i+1}| <= 1e-30. Requires n >= 2.
int visibilityCrossings(const double* nx, const double* ny,
                        const double* cdot, std::size_t n, double px,
                        double py, VisibilityCrossing* crossings,
                        int maxCrossings);

}  // namespace uniq::dsp::kernels
