// One-time ISA resolution and the public kernel entry points. Every public
// function is a tail-call through the resolved function-pointer table, so
// the per-call dispatch cost is a single indirect jump.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "dsp/kernels/kernel_table.h"
#include "dsp/kernels/kernels.h"
#include "obs/metrics.h"

namespace uniq::dsp::kernels {

namespace {

bool cpuHasAvx2Fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// True when the runtime environment allows the AVX2 tier: compiled in,
/// CPU capable, and not disabled via UNIQ_SIMD=scalar (or =off/0).
bool avx2Usable() {
  if (!avx2Compiled() || !cpuHasAvx2Fma()) return false;
  if (const char* env = std::getenv("UNIQ_SIMD")) {
    if (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "off") == 0 ||
        std::strcmp(env, "OFF") == 0 || std::strcmp(env, "0") == 0)
      return false;
  }
  return true;
}

struct Dispatch {
  Isa isa;
  const detail::KernelTable* table;
};

Dispatch resolve(Isa isa) {
#if defined(UNIQ_HAVE_AVX2)
  if (isa == Isa::kAvx2) return {Isa::kAvx2, &detail::avx2Table()};
#endif
  (void)isa;
  return {Isa::kScalar, &detail::scalarTable()};
}

Dispatch& dispatch() {
  static Dispatch d = [] {
    const Isa isa = avx2Usable() ? Isa::kAvx2 : Isa::kScalar;
    obs::registry().gauge("kernels.avx2").set(isa == Isa::kAvx2 ? 1.0 : 0.0);
    obs::registry()
        .counter(std::string("kernels.dispatch.") + isaName(isa))
        .inc();
    return resolve(isa);
  }();
  return d;
}

}  // namespace

const char* isaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

Isa activeIsa() { return dispatch().isa; }

bool avx2Compiled() {
#if defined(UNIQ_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool setIsaOverride(Isa isa) {
  if (isa == Isa::kAvx2 && !(avx2Compiled() && cpuHasAvx2Fma())) return false;
  Dispatch& d = dispatch();
  d = resolve(isa);
  obs::registry().gauge("kernels.avx2").set(d.isa == Isa::kAvx2 ? 1.0 : 0.0);
  obs::registry()
      .counter(std::string("kernels.dispatch.") + isaName(d.isa))
      .inc();
  return true;
}

namespace detail {
const KernelTable& table() { return *dispatch().table; }
}  // namespace detail

void ditStagesFrom(double* re, double* im, std::size_t n,
                   const double* stageTwRe, const double* stageTwIm,
                   std::size_t firstLen) {
  detail::table().ditStages(re, im, n, stageTwRe, stageTwIm, firstLen);
}

void gatherBitReversed(const std::complex<double>* in,
                       const std::uint32_t* rev, std::size_t n, double* re,
                       double* im) {
  detail::table().gatherBitReversed(in, rev, n, re, im);
}

void interleaveScaled(const double* re, const double* im, std::size_t n,
                      double s, double* out) {
  detail::table().interleaveScaled(re, im, n, s, out);
}

void rfftSplit(const double* zRe, const double* zIm, std::size_t h,
               const double* wr, const double* wi, std::complex<double>* out) {
  detail::table().rfftSplit(zRe, zIm, h, wr, wi, out);
}

void irfftMerge(const std::complex<double>* x, std::size_t h,
                const double* wr, const double* wi, std::complex<double>* z) {
  detail::table().irfftMerge(x, h, wr, wi, z);
}

void magnitudes(const std::complex<double>* x, std::size_t n, double* out) {
  detail::table().magnitudes(x, n, out);
}

void phatWeight(std::complex<double>* a, const std::complex<double>* b,
                std::size_t n, double minMagnitude) {
  detail::table().phatWeight(a, b, n, minMagnitude);
}

void cmulInterleaved(std::complex<double>* a, const std::complex<double>* b,
                     std::size_t n) {
  detail::table().cmulInterleaved(a, b, n);
}

void cmulConjInterleaved(std::complex<double>* a,
                         const std::complex<double>* b, std::size_t n) {
  detail::table().cmulConjInterleaved(a, b, n);
}

void spectralDivide(const std::complex<double>* num,
                    const std::complex<double>* den, double eps,
                    std::complex<double>* out, std::size_t n) {
  detail::table().spectralDivide(num, den, eps, out, n);
}

double maxNorm(const std::complex<double>* x, std::size_t n) {
  return detail::table().maxNorm(x, n);
}

double dotProduct(const double* a, const double* b, std::size_t n) {
  return detail::table().dotProduct(a, b, n);
}

void lagDotProducts(const double* a, std::size_t la, const double* b,
                    std::size_t lb, long lo, long hi, double* out) {
  detail::table().lagDotProducts(a, la, b, lb, lo, hi, out);
}

void firFilter(const double* x, const double* w, std::size_t taps,
               std::size_t count, double* out) {
  detail::table().firFilter(x, w, taps, count, out);
}

double sumSquares(const double* x, std::size_t n) {
  return detail::table().sumSquares(x, n);
}

int visibilityCrossings(const double* nx, const double* ny, const double* cdot,
                        std::size_t n, double px, double py,
                        VisibilityCrossing* crossings, int maxCrossings) {
  return detail::table().visibilityCrossings(nx, ny, cdot, n, px, py,
                                             crossings, maxCrossings);
}

}  // namespace uniq::dsp::kernels
