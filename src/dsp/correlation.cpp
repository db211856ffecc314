#include "dsp/correlation.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/kernels/kernels.h"

namespace uniq::dsp {

namespace {

/// Parabolic interpolation around a discrete argmax. Returns the refined
/// offset in [-0.5, 0.5] and the interpolated peak value.
struct ParabolicFit {
  double offset;
  double value;
};

ParabolicFit parabolicRefine(double ym1, double y0, double yp1) {
  const double denom = ym1 - 2 * y0 + yp1;
  if (std::fabs(denom) < 1e-30) return {0.0, y0};
  double d = 0.5 * (ym1 - yp1) / denom;
  d = std::clamp(d, -0.5, 0.5);
  const double value = y0 - 0.25 * (ym1 - yp1) * d;
  return {d, value};
}

/// Argmax of c over |lag| <= maxLagSamples (every lag when it is <= 0),
/// where c[k] holds lag firstLag + k, refined parabolically when both
/// neighbours are in c. First maximum in lag order wins.
CorrelationPeak peakSearch(const std::vector<double>& c, double firstLag,
                           double maxLagSamples) {
  const auto lagOf = [&](std::size_t k) {
    return static_cast<double>(k) + firstLag;
  };
  std::size_t best = 0;
  bool found = false;
  for (std::size_t k = 0; k < c.size(); ++k) {
    if (maxLagSamples > 0.0 && std::fabs(lagOf(k)) > maxLagSamples) continue;
    if (!found || c[k] > c[best]) {
      best = k;
      found = true;
    }
  }
  UNIQ_CHECK(found, "no correlation lag within the allowed range");
  CorrelationPeak peak;
  if (best > 0 && best + 1 < c.size()) {
    const auto fit = parabolicRefine(c[best - 1], c[best], c[best + 1]);
    peak.lag = lagOf(best) + fit.offset;
    peak.value = fit.value;
  } else {
    peak.lag = lagOf(best);
    peak.value = c[best];
  }
  return peak;
}

/// Lag of crossCorrelate(a, b)[0].
double crossCorrelateFirstLag(std::size_t bSize) {
  return -static_cast<double>(bSize - 1);
}

}  // namespace

double l2Norm(std::span<const double> x) {
  return std::sqrt(kernels::sumSquares(x.data(), x.size()));
}

std::vector<double> crossCorrelate(std::span<const double> a,
                                   std::span<const double> b) {
  UNIQ_REQUIRE(!a.empty() && !b.empty(), "cross-correlation of empty signal");
  // xcorr(a, b)[lag] = conv(a, reverse(b))[lag + b.size()-1]
  const std::size_t outLen = a.size() + b.size() - 1;
  const std::size_t n = nextPowerOfTwo(outLen);
  const auto plan = fftPlan(n);
  auto fa = plan->rfft(a);  // both zero-padded to n
  const auto fb = plan->rfft(b);
  kernels::cmulConjInterleaved(fa.data(), fb.data(), fa.size());
  const auto r = plan->irfft(fa);
  // IFFT of A*conj(B) yields r[p] = sum_t a[t+p]*b[t] = c[-p] under the
  // header convention c[lag] = sum_t a[t]*b[t+lag]; unwrap accordingly into
  // lags [-(b-1) .. a-1]. c's true support is [-(a-1), b-1]; lags outside
  // it are zero by definition (reading the circular buffer there would
  // alias the opposite tail).
  std::vector<double> out(outLen);
  const std::size_t nb = b.size() - 1;
  const long lagLo = -(static_cast<long>(a.size()) - 1);
  const long lagHi = static_cast<long>(b.size()) - 1;
  for (std::size_t k = 0; k < outLen; ++k) {
    const long lag = static_cast<long>(k) - static_cast<long>(nb);
    if (lag < lagLo || lag > lagHi) {
      out[k] = 0.0;
      continue;
    }
    const long p = -lag;
    const std::size_t idx = p >= 0 ? static_cast<std::size_t>(p)
                                   : n - static_cast<std::size_t>(-p);
    out[k] = r[idx];
  }
  return out;
}

CorrelationPeak normalizedCorrelationPeak(std::span<const double> a,
                                          std::span<const double> b) {
  return normalizedCorrelationPeak(a, b, 0.0);
}

CorrelationPeak normalizedCorrelationPeak(std::span<const double> a,
                                          std::span<const double> b,
                                          double maxLagSamples) {
  const double na = l2Norm(a);
  const double nb = l2Norm(b);
  if (na < 1e-30 || nb < 1e-30) return {0.0, 0.0};
  auto c = crossCorrelate(a, b);
  const double scale = 1.0 / (na * nb);
  for (auto& v : c) v *= scale;
  return peakSearch(c, crossCorrelateFirstLag(b.size()), maxLagSamples);
}

CorrelationPeak boundedNormalizedCorrelationPeak(std::span<const double> a,
                                                 std::span<const double> b,
                                                 double bNorm,
                                                 double maxLagSamples) {
  UNIQ_REQUIRE(maxLagSamples > 0.0,
               "bounded correlation needs maxLagSamples > 0");
  const double na = l2Norm(a);
  if (na < 1e-30 || bNorm < 1e-30) return {0.0, 0.0};
  // crossCorrelate lays out lags [-(b.size()-1), a.size()-1]; keep the
  // window plus one neighbour each side, clipped to that layout, so
  // peakSearch sees the same neighbours (and the same edges) it would there.
  const long la = static_cast<long>(a.size());
  const long lb = static_cast<long>(b.size());
  const long reach =
      static_cast<long>(std::min(std::floor(maxLagSamples),
                                 static_cast<double>(la + lb))) +
      1;
  const long lo = std::max(-(lb - 1), -reach);
  const long hi = std::min(la - 1, reach);
  const double scale = 1.0 / (na * bNorm);
  std::vector<double> c(static_cast<std::size_t>(hi - lo + 1));
  kernels::lagDotProducts(a.data(), a.size(), b.data(), b.size(), lo, hi,
                          c.data());
  for (auto& v : c) v *= scale;
  return peakSearch(c, static_cast<double>(lo), maxLagSamples);
}

std::size_t gccPhatSize(std::size_t aSize, std::size_t bSize) {
  return nextPowerOfTwo(aSize + bSize - 1);
}

void gccPhatSpectra(std::span<const double> a, std::span<const double> b,
                    std::span<Complex> fa, std::span<Complex> fb) {
  UNIQ_REQUIRE(!a.empty() && !b.empty(), "gccPhat of empty signal");
  const auto plan = fftPlan(gccPhatSize(a.size(), b.size()));
  plan->rfft(a, fa);  // both zero-padded to n
  plan->rfft(b, fb);
}

std::vector<double> gccPhatFromSpectra(std::span<Complex> fa,
                                       std::span<const Complex> fb,
                                       std::size_t aSize, std::size_t bSize) {
  UNIQ_REQUIRE(aSize > 0 && bSize > 0, "gccPhat of empty signal");
  const std::size_t outLen = aSize + bSize - 1;
  const std::size_t n = gccPhatSize(aSize, bSize);
  UNIQ_REQUIRE(fa.size() == n / 2 + 1 && fb.size() == n / 2 + 1,
               "gccPhat spectra must hold n/2 + 1 bins");
  kernels::phatWeight(fa.data(), fb.data(), fa.size(), 1e-15);
  common::ArenaScope scope(common::simdScratch());
  const auto r = scratchDoubles(n);
  fftPlan(n)->irfft(fa, r);
  std::vector<double> out(outLen);
  const std::size_t nb = bSize - 1;
  const long lagLo = -(static_cast<long>(aSize) - 1);
  const long lagHi = static_cast<long>(bSize) - 1;
  for (std::size_t k = 0; k < outLen; ++k) {
    const long lag = static_cast<long>(k) - static_cast<long>(nb);
    if (lag < lagLo || lag > lagHi) {
      out[k] = 0.0;
      continue;
    }
    const long p = -lag;
    const std::size_t idx = p >= 0 ? static_cast<std::size_t>(p)
                                   : n - static_cast<std::size_t>(-p);
    out[k] = r[idx];
  }
  return out;
}

std::vector<double> gccPhat(std::span<const double> a,
                            std::span<const double> b) {
  UNIQ_REQUIRE(!a.empty() && !b.empty(), "gccPhat of empty signal");
  const std::size_t n = gccPhatSize(a.size(), b.size());
  // The spectra and the inverse live in the thread's scratch arena: at the
  // AoA path's n = 16384 each is ~128 KiB, right at the allocator's mmap
  // threshold, so fresh vectors would make the cost depend on heap state.
  common::ArenaScope scope(common::simdScratch());
  const auto fa = scratchComplex(n / 2 + 1);
  const auto fb = scratchComplex(n / 2 + 1);
  gccPhatSpectra(a, b, fa, fb);
  return gccPhatFromSpectra(fa, fb, a.size(), b.size());
}

double estimateDelayGccPhat(std::span<const double> a,
                            std::span<const double> b,
                            double maxLagSamples) {
  auto c = gccPhat(a, b);
  const auto peak =
      peakSearch(c, crossCorrelateFirstLag(b.size()), maxLagSamples);
  // xcorr(a,b) peaks at lag d when a[t] ~= b[t + d]; b lags a by d.
  return peak.lag;
}

}  // namespace uniq::dsp
