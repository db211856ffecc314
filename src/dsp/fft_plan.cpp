#include "dsp/fft_plan.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/aligned.h"
#include "common/constants.h"
#include "common/error.h"
#include "dsp/kernels/kernels.h"
#include "obs/metrics.h"

namespace uniq::dsp {

namespace {

// Cache bookkeeping. The map is mutex-guarded; the counters are lock-free so
// hot paths can be instrumented without contention.
std::mutex& cacheMutex() {
  static std::mutex m;
  return m;
}

std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>>& planCache() {
  static std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> c;
  return c;
}

// Cache counters live in the process-wide metrics registry so the CLI and
// the exporters report them alongside everything else.
obs::Counter& planHitCounter() {
  static obs::Counter& c = obs::registry().counter("fft.plan.hits");
  return c;
}
obs::Counter& planMissCounter() {
  static obs::Counter& c = obs::registry().counter("fft.plan.misses");
  return c;
}
obs::Gauge& cachedPlansGauge() {
  static obs::Gauge& g = obs::registry().gauge("fft.plan.cached");
  return g;
}
// Executed-transform counter: every rfft/irfft. The fusion stage reads
// deltas of it to report FFT work per objective evaluation.
obs::Counter& transformCounter() {
  static obs::Counter& c = obs::registry().counter("fft.transforms");
  return c;
}

// Plans are a few hundred KiB at the largest sizes this pipeline uses; cap
// the cache so a pathological caller sweeping many distinct lengths cannot
// grow it without bound.
constexpr std::size_t kMaxCachedPlans = 128;

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  UNIQ_REQUIRE(isPowerOfTwo(n), "FftPlan needs a power-of-two size");
  UNIQ_REQUIRE(n <= (std::size_t{1} << 31),
               "FftPlan size exceeds table range");
  if (n < 2) return;
  const std::size_t h = n / 2;
  halfBitrev_.resize(h);
  halfBitrev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < h; ++i) {
    std::size_t bit = h >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    halfBitrev_[i] = static_cast<std::uint32_t>(j);
  }
  // Packed per-stage twiddles: stage len at offset len/2 - 1, entries
  // exp(-2*pi*i*k/len) for k < len/2. The offsets telescope
  // (1 + 2 + ... + len/4 == len/2 - 1), n - 1 entries total.
  twRe_.resizeDiscard(n - 1);
  twIm_.resizeDiscard(n - 1);
  invTwIm_.resizeDiscard(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      const double ang =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(len);
      twRe_[half - 1 + k] = std::cos(ang);
      twIm_[half - 1 + k] = std::sin(ang);
      invTwIm_[half - 1 + k] = -twIm_[half - 1 + k];
    }
  }
}

std::vector<Complex> FftPlan::rfft(std::span<const double> input) const {
  std::vector<Complex> out(n_ / 2 + 1);
  rfft(input, out);
  return out;
}

void FftPlan::rfft(std::span<const double> input,
                   std::span<Complex> out) const {
  const std::size_t len = input.size();
  UNIQ_REQUIRE(len >= 1 && len <= n_, "rfft input must hold 1..n samples");
  UNIQ_REQUIRE(out.size() == n_ / 2 + 1,
               "rfft output must hold n/2 + 1 bins");
  transformCounter().inc();
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = Complex(input[0], 0);
    return;
  }

  // Pack even/odd samples into one complex signal z of length h = n/2,
  // transform, then split: X[k] = E[k] + exp(-2*pi*i*k/n) * O[k]. Samples
  // past `len` are zeros.
  const std::size_t h = n / 2;
  auto& arena = common::simdScratch();
  common::ArenaScope scope(arena);
  const std::size_t lane = common::alignedCount(h, sizeof(double));
  double* zRe = arena.allocDoubles(2 * lane);
  double* zIm = zRe + lane;
  const auto& rev = halfBitrev_;
  // z has its nonzeros in [0, nz). In bit-reversed order, each length-block
  // sub-transform then holds one nonzero, z[rev[b]], at its start, so its
  // transform is that sample repeated: fill the blocks and start the
  // cascade at stage 2 * block. The skipped stages would only have added
  // and multiplied zeros, so every bin equals the padded transform's.
  const std::size_t nz = (len + 1) / 2;
  const std::size_t block = h / nextPowerOfTwo(nz);
  if (block >= 4) {
    for (std::size_t b = 0; b < h; b += block) {
      const std::size_t j = rev[b];
      const double vr = 2 * j < len ? input[2 * j] : 0.0;
      const double vi = 2 * j + 1 < len ? input[2 * j + 1] : 0.0;
      std::fill(zRe + b, zRe + b + block, vr);
      std::fill(zIm + b, zIm + b + block, vi);
    }
    kernels::ditStagesFrom(zRe, zIm, h, stageTwRe(), stageTwIm(false),
                           2 * block);
  } else {
    // Too few stages to skip: gather the full padded signal.
    const double* x = input.data();
    if (len < n) {
      double* padded = arena.allocDoubles(n);
      std::copy(input.begin(), input.end(), padded);
      std::fill(padded + len, padded + n, 0.0);
      x = padded;
    }
    if (h == 1) {
      zRe[0] = x[0];
      zIm[0] = x[1];
    } else {
      // x read as h complex values, gathered in length-h bit-reversed
      // order with the len == 2 stage fused.
      kernels::gatherBitReversed(reinterpret_cast<const Complex*>(x),
                                 rev.data(), h, zRe, zIm);
      kernels::ditStagesFrom(zRe, zIm, h, stageTwRe(), stageTwIm(false), 4);
    }
  }

  // Split twiddles exp(-2*pi*i*k/n) are exactly the len == n stage slice.
  kernels::rfftSplit(zRe, zIm, h, twRe_.data() + (h - 1),
                     twIm_.data() + (h - 1), out.data());
}

std::vector<double> FftPlan::irfft(std::span<const Complex> halfSpectrum) const {
  std::vector<double> out(n_);
  irfft(halfSpectrum, out);
  return out;
}

void FftPlan::irfft(std::span<const Complex> halfSpectrum,
                    std::span<double> out) const {
  UNIQ_REQUIRE(halfSpectrum.size() == n_ / 2 + 1,
               "half spectrum length does not match plan");
  UNIQ_REQUIRE(out.size() == n_, "irfft output must hold n samples");
  transformCounter().inc();
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = halfSpectrum[0].real();
    return;
  }

  const std::size_t h = n / 2;
  auto& arena = common::simdScratch();
  common::ArenaScope scope(arena);
  const std::size_t lane = common::alignedCount(h, sizeof(double));
  auto* z = reinterpret_cast<Complex*>(arena.allocDoubles(2 * lane));
  double* zRe = arena.allocDoubles(2 * lane);
  double* zIm = zRe + lane;
  // Natural-order z, then gather into bit-reversed order for the inverse
  // cascade. The merge undoes the rfft split twiddle with the conjugate
  // table slice.
  kernels::irfftMerge(halfSpectrum.data(), h, twRe_.data() + (h - 1),
                      invTwIm_.data() + (h - 1), z);
  if (h == 1) {
    zRe[0] = z[0].real();
    zIm[0] = z[0].imag();
  } else {
    kernels::gatherBitReversed(z, halfBitrev_.data(), h, zRe, zIm);
    kernels::ditStagesFrom(zRe, zIm, h, stageTwRe(), stageTwIm(true), 4);
  }
  kernels::interleaveScaled(zRe, zIm, h, 1.0 / static_cast<double>(h),
                            out.data());
}

std::span<Complex> scratchComplex(std::size_t n) {
  // std::complex<double> is layout-compatible with double[2].
  double* p = common::simdScratch().allocDoubles(2 * n);
  return {reinterpret_cast<Complex*>(p), n};
}

std::span<double> scratchDoubles(std::size_t n) {
  return {common::simdScratch().allocDoubles(n), n};
}

std::shared_ptr<const FftPlan> fftPlan(std::size_t n) {
  UNIQ_REQUIRE(isPowerOfTwo(n), "fftPlan needs a power-of-two size");
  {
    std::lock_guard<std::mutex> lock(cacheMutex());
    auto& cache = planCache();
    const auto it = cache.find(n);
    if (it != cache.end()) {
      planHitCounter().inc();
      return it->second;
    }
  }
  planMissCounter().inc();
  // Build outside the lock so a large plan does not stall other lookups.
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(cacheMutex());
  auto& cache = planCache();
  if (cache.size() >= kMaxCachedPlans) cache.erase(cache.begin());
  const auto [it, inserted] = cache.emplace(n, std::move(plan));
  cachedPlansGauge().set(static_cast<double>(cache.size()));
  return it->second;
}

std::vector<Complex> rfft(std::span<const double> input) {
  return fftPlan(input.size())->rfft(input);
}

std::vector<double> irfft(std::span<const Complex> halfSpectrum,
                          std::size_t n) {
  return fftPlan(n)->irfft(halfSpectrum);
}

}  // namespace uniq::dsp
