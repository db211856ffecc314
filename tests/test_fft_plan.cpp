#include "dsp/fft_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/constants.h"
#include "common/error.h"
#include "common/random.h"
#include "dsp/fft.h"
#include "dsp/kernels/kernels.h"
#include "obs/metrics.h"

namespace uniq::dsp {
namespace {

std::vector<double> randomReal(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

/// O(n^2) DFT bins 0..n/2 of a real signal, the independent ground truth
/// the plan cache's transforms are checked against.
std::vector<Complex> naiveHalfDft(const std::vector<double>& in) {
  const std::size_t n = in.size();
  std::vector<Complex> out(n / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k) {
    Complex sum(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -kTwoPi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      sum += in[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

TEST(FftPlan, RfftMatchesFullComplexFft) {
  for (const std::size_t n : {2u, 4u, 8u, 16u, 64u, 1024u}) {
    const auto signal = randomReal(n, 30 + n);
    std::vector<Complex> full(signal.begin(), signal.end());
    fftPow2ReferenceInPlace(full, false);

    const auto half = rfft(signal);
    ASSERT_EQ(half.size(), n / 2 + 1) << "n=" << n;
    for (std::size_t k = 0; k <= n / 2; ++k)
      EXPECT_LT(std::abs(half[k] - full[k]), 1e-9) << "n=" << n << " k=" << k;
  }
}

TEST(FftPlan, IrfftMatchesSeedReferenceInverse) {
  for (const std::size_t n : {2u, 8u, 64u, 1024u}) {
    // A conjugate-symmetric spectrum: the transform of a real signal.
    std::vector<Complex> full(n);
    const auto signal = randomReal(n, 35 + n);
    for (std::size_t i = 0; i < n; ++i) full[i] = signal[i];
    fftPow2ReferenceInPlace(full, false);
    const std::vector<Complex> half(full.begin(), full.begin() + n / 2 + 1);

    const auto planned = irfft(half, n);
    fftPow2ReferenceInPlace(full, true);
    ASSERT_EQ(planned.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(planned[i], full[i].real(), 1e-9) << "n=" << n << " i=" << i;
      EXPECT_NEAR(full[i].imag(), 0.0, 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlan, RfftIrfftRoundTripIsIdentity) {
  for (const std::size_t n : {2u, 4u, 8u, 256u, 4096u}) {
    Pcg32 rng(40 + n);
    std::vector<double> signal(n);
    for (auto& s : signal) s = rng.gaussian();
    const auto back = irfft(rfft(signal), n);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], signal[i], 1e-9) << "n=" << n << " i=" << i;
  }
}

/// Input lengths that reach every rfft path at plan size n: the shortest
/// inputs, odd lengths (a half-filled last packed sample), both sides of
/// each n/2^s boundary where one more skipped stage begins, and full length.
std::set<std::size_t> prefixLengths(std::size_t n) {
  std::set<std::size_t> lens{1, 2, 3, 5, 7, 193, n - 1, n};
  for (std::size_t m = n; m >= 2; m >>= 1)
    lens.insert({m - 1, m, m + 1});
  std::erase_if(lens, [n](std::size_t len) { return len < 1 || len > n; });
  return lens;
}

TEST(FftPlan, PrefixRfftEqualsPadded) {
  namespace kn = kernels;
  const kn::Isa natural = kn::activeIsa();
  const auto checkTier = [] {
    for (std::size_t n = 2; n <= 65536; n <<= 1) {
      const auto plan = fftPlan(n);
      Pcg32 rng(50 + n);
      std::vector<double> signal(n);
      for (auto& s : signal) s = rng.gaussian();
      for (const std::size_t len : prefixLengths(n)) {
        std::vector<double> padded(n, 0.0);
        std::copy_n(signal.begin(), len, padded.begin());
        const auto want = plan->rfft(padded);
        const auto got =
            plan->rfft(std::span<const double>(signal).first(len));
        ASSERT_EQ(got.size(), want.size());
        std::size_t mismatches = 0;
        for (std::size_t k = 0; k < want.size(); ++k)
          if (!(got[k].real() == want[k].real() &&
                got[k].imag() == want[k].imag()))
            ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "n=" << n << " len=" << len;
      }
    }
  };
  ASSERT_TRUE(kn::setIsaOverride(kn::Isa::kScalar));
  checkTier();
  const bool haveAvx2 = kn::setIsaOverride(kn::Isa::kAvx2);
  if (haveAvx2) checkTier();
  kn::setIsaOverride(natural);
  if (!haveAvx2) GTEST_SKIP() << "AVX2 tier unavailable; scalar tier checked";
}

TEST(FftPlan, RfftRejectsEmptyAndOverlongInput) {
  const auto plan = fftPlan(16);
  EXPECT_THROW(plan->rfft(std::span<const double>()), InvalidArgument);
  EXPECT_THROW(plan->rfft(std::vector<double>(17, 1.0)), InvalidArgument);
  EXPECT_THROW(fftPlan(1)->rfft(std::vector<double>(2, 1.0)),
               InvalidArgument);
}

TEST(FftPlan, ScratchOverloadsMatchTheVectorTransformsBitwise) {
  auto& arena = common::simdScratch();
  const std::size_t before = arena.offset();
  for (const std::size_t n : {1u, 2u, 64u, 16384u}) {
    const auto plan = fftPlan(n);
    Pcg32 rng(60 + n);
    std::vector<double> signal(n / 2 + 1);
    for (auto& s : signal) s = rng.gaussian();
    const auto wantSpectrum = plan->rfft(signal);
    const auto wantSignal = plan->irfft(wantSpectrum);
    common::ArenaScope scope(arena);
    const auto spectrum = scratchComplex(n / 2 + 1);
    const auto back = scratchDoubles(n);
    plan->rfft(signal, spectrum);
    plan->irfft(spectrum, back);
    for (std::size_t k = 0; k < spectrum.size(); ++k) {
      EXPECT_EQ(spectrum[k].real(), wantSpectrum[k].real()) << n << " " << k;
      EXPECT_EQ(spectrum[k].imag(), wantSpectrum[k].imag()) << n << " " << k;
    }
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(back[i], wantSignal[i]) << n << " " << i;
    EXPECT_THROW(plan->rfft(signal, spectrum.first(n / 2)), InvalidArgument);
  }
  // Every scope unwound: the arena is back where it started.
  EXPECT_EQ(arena.offset(), before);
}

TEST(FftPlan, CacheCountsHitsAndMisses) {
  // An uncommon length keeps this test independent of which plans other
  // tests already cached.
  const std::size_t n = 1 << 14;
  fftPlan(n);  // warm: miss on first-ever use, hit otherwise
  auto& hits = obs::registry().counter("fft.plan.hits");
  auto& misses = obs::registry().counter("fft.plan.misses");
  const auto hitsBefore = hits.value();
  const auto missesBefore = misses.value();
  fftPlan(n);
  fftPlan(n);
  EXPECT_EQ(hits.value() - hitsBefore, 2u);
  EXPECT_EQ(misses.value() - missesBefore, 0u);
  EXPECT_GE(obs::registry().gauge("fft.plan.cached").value(), 1.0);
}

TEST(FftPlan, ConcurrentLookupsAndTransformsAreRaceFree) {
  // Several threads hammer the cache with overlapping sizes while
  // transforming both ways; every thread must see results identical to the
  // serial reference.
  const std::vector<std::size_t> sizes = {64, 128, 256, 1024};
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<Complex>> expected;
  for (const auto n : sizes) {
    inputs.push_back(randomReal(n, 50 + n));
    expected.push_back(naiveHalfDft(inputs.back()));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<double> worstPerThread(kThreads, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      double worst = 0.0;
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t which = static_cast<std::size_t>(t + round) %
                                  sizes.size();
        const auto plan = fftPlan(sizes[which]);
        const auto out = plan->rfft(inputs[which]);
        for (std::size_t i = 0; i < out.size(); ++i)
          worst = std::max(worst, std::abs(out[i] - expected[which][i]));
        const auto back = plan->irfft(out);
        for (std::size_t i = 0; i < back.size(); ++i)
          worst = std::max(worst, std::abs(back[i] - inputs[which][i]));
      }
      worstPerThread[static_cast<std::size_t>(t)] = worst;
    });
  }
  for (auto& th : threads) th.join();
  for (const double worst : worstPerThread) EXPECT_LT(worst, 1e-8);
}

TEST(FftPlan, NextPowerOfTwoThrowsInsteadOfOverflowing) {
  constexpr std::size_t kMaxPow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(nextPowerOfTwo(kMaxPow2), kMaxPow2);
  EXPECT_THROW(nextPowerOfTwo(kMaxPow2 + 1), InvalidArgument);
  EXPECT_THROW(nextPowerOfTwo(std::numeric_limits<std::size_t>::max()),
               InvalidArgument);
}

}  // namespace
}  // namespace uniq::dsp
