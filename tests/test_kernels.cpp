// SIMD-vs-scalar equivalence tests for the dsp/kernels tier layer.
//
// Error budgets (documented here, asserted below; eps = 2^-52):
//  - FFT butterfly cascades: the AVX2 tier contracts each butterfly's
//    complex multiply into FMAs (one rounding instead of two), so a log2(n)
//    stage cascade can drift a few ulps per bin. Budget: 8 eps relative to
//    the spectrum's max magnitude.
//  - ditStagesFrom at firstLen vs the full cascade (firstLen == 2):
//    starting at stage firstLen after transforming each length-firstLen/2
//    block on its own runs the same operation sequence as the full cascade
//    (same stage tables, same FMA idioms), so results are asserted BITWISE
//    equal, per tier.
//  - Pointwise complex kernels: one FMA contraction per element. Budget:
//    4 eps relative to the element magnitude.
//  - Reductions (dotProduct/sumSquares): the AVX2 tier reorders the
//    sum into 8 partial accumulators. Budget: 1e-12 relative to the sum of
//    absolute terms.
//  - Transform packing (gatherBitReversed, interleaveScaled, rfftSplit,
//    irfftMerge, magnitudes), phatWeight and firFilter: the AVX2 tier
//    repeats the scalar tier's multiplies, adds, divides and square roots
//    lane by lane, in a file that cannot emit FMA, so results are asserted
//    BITWISE equal.
//  - The AVX2 DIT cascade runs two stages per pass over the data; each
//    element meets the same butterflies in the same order as one stage per
//    pass, so it is asserted BITWISE equal to a one-stage-per-pass
//    reference kept here (std::fma standing in for fmadd/fnmadd).
//  - lagDotProducts: every lag BITWISE equal to dotProduct on its overlap,
//    on each tier.
//  - visibilityCrossings: both tiers compute the classifier with explicit
//    mul/sub (never FMA — the AVX2 translation unit uses intrinsics the
//    compiler cannot contract), so crossing counts and fractions are
//    asserted BITWISE equal. This also makes the DSF solve (whose hot loop
//    is this kernel plus tier-independent scalar geometry) bitwise
//    reproducible across tiers, asserted end-to-end via solveRobust.
//
// Every test runs in both the default (UNIQ_SIMD=ON) and the UNIQ_SIMD=OFF
// CI builds; tier-pair comparisons skip themselves when the AVX2 tier is
// not compiled in or the CPU lacks it.

#include "dsp/kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/random.h"
#include "core/sensor_fusion.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "geometry/diffraction.h"
#include "geometry/head_boundary.h"
#include "geometry/polar.h"

namespace uniq {
namespace {

namespace kn = dsp::kernels;

class KernelTiers : public ::testing::Test {
 protected:
  void SetUp() override {
    natural_ = kn::activeIsa();
    haveAvx2_ = kn::setIsaOverride(kn::Isa::kAvx2);
    kn::setIsaOverride(natural_);
  }
  void TearDown() override { kn::setIsaOverride(natural_); }

  /// Run `f` under the given tier and restore the natural tier after.
  template <class F>
  auto under(kn::Isa isa, F&& f) {
    EXPECT_TRUE(kn::setIsaOverride(isa));
    auto result = f();
    kn::setIsaOverride(natural_);
    return result;
  }

  /// run() under each tier must return the same values (compared with ==).
  template <class F>
  void expectTiersEqual(F&& run) {
    const std::vector<double> s = under(kn::Isa::kScalar, run);
    const std::vector<double> v = under(kn::Isa::kAvx2, run);
    ASSERT_EQ(s.size(), v.size());
    for (std::size_t i = 0; i < s.size(); ++i)
      ASSERT_EQ(s[i], v[i]) << "element " << i;
  }

  bool haveAvx2_ = false;
  kn::Isa natural_ = kn::Isa::kScalar;
};

constexpr double kEps = std::numeric_limits<double>::epsilon();

std::vector<double> testSignal(std::size_t n, int seed) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<double>(i);
    x[i] = std::sin(0.013 * t * (seed + 1)) +
           0.5 * std::cos(0.71 * t + seed) + 0.1 * std::sin(2.9 * t);
  }
  return x;
}

std::vector<dsp::Complex> testSpectrum(std::size_t n, int seed) {
  const auto re = testSignal(n, seed);
  const auto im = testSignal(n, seed + 100);
  std::vector<dsp::Complex> z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = {re[i], im[i]};
  return z;
}

double maxMagnitude(const std::vector<dsp::Complex>& z) {
  double m = 0.0;
  for (const auto& v : z) m = std::max(m, std::abs(v));
  return m;
}

void expectSpectraClose(const std::vector<dsp::Complex>& a,
                        const std::vector<dsp::Complex>& b, double ulps) {
  ASSERT_EQ(a.size(), b.size());
  const double tol = ulps * kEps * std::max(maxMagnitude(a), 1.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "bin " << i;
  }
}

/// The packed DIT stage tables for len = 4..n (stage len at offset
/// len/2 - 2).
void stageTables(std::size_t n, std::vector<double>& twRe,
                 std::vector<double>& twIm) {
  twRe.clear();
  twIm.clear();
  for (std::size_t len = 4; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double ang =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(len);
      twRe.push_back(std::cos(ang));
      twIm.push_back(std::sin(ang));
    }
  }
}

TEST_F(KernelTiers, ForwardPow2TiersMatch) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (std::size_t n : {16ul, 256ul, 4096ul}) {
    const auto plan = dsp::fftPlan(n);
    const auto input = testSignal(n, 1);
    const auto scalar =
        under(kn::Isa::kScalar, [&] { return plan->rfft(input); });
    const auto avx2 = under(kn::Isa::kAvx2, [&] { return plan->rfft(input); });
    expectSpectraClose(scalar, avx2, 8.0);
  }
}

TEST_F(KernelTiers, RfftIrfftTiersMatchAndRoundTrip) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (std::size_t n : {64ul, 2048ul}) {
    const auto plan = dsp::fftPlan(n);
    const auto x = testSignal(n, 2);
    const auto scalarSpec =
        under(kn::Isa::kScalar, [&] { return plan->rfft(x); });
    const auto avx2Spec = under(kn::Isa::kAvx2, [&] { return plan->rfft(x); });
    expectSpectraClose(scalarSpec, avx2Spec, 8.0);

    const auto scalarBack =
        under(kn::Isa::kScalar, [&] { return plan->irfft(scalarSpec); });
    const auto avx2Back =
        under(kn::Isa::kAvx2, [&] { return plan->irfft(avx2Spec); });
    // Round trip and cross-tier time-domain error are bounded by the
    // spectrum's max magnitude folded through the 1/n inverse scaling;
    // 1e-10 absolute (~450 eps of the unit-amplitude signal) covers both
    // with margin while still catching any real kernel defect.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(scalarBack[i], x[i], 1e-10);
      EXPECT_NEAR(avx2Back[i], scalarBack[i], 1e-10);
    }
  }
}

TEST_F(KernelTiers, DitStagesFromResumesTheFullCascadeBitwise) {
  std::vector<kn::Isa> tiers{kn::Isa::kScalar};
  if (haveAvx2_) tiers.push_back(kn::Isa::kAvx2);
  for (const kn::Isa isa : tiers) {
    for (std::size_t n = 2; n <= 1024; n <<= 1) {
      // A block of length m < n reads the len <= m prefix of the tables.
      std::vector<double> twRe, twIm;
      stageTables(n, twRe, twIm);
      const auto z = testSpectrum(n, static_cast<int>(n));
      std::vector<double> re0(n), im0(n);
      for (std::size_t i = 0; i < n; ++i) {
        re0[i] = z[i].real();
        im0[i] = z[i].imag();
      }
      for (std::size_t firstLen = 2; firstLen <= 2 * n; firstLen <<= 1) {
        under(isa, [&] {
          auto fullRe = re0, fullIm = im0;
          kn::ditStagesFrom(fullRe.data(), fullIm.data(), n, twRe.data(),
                            twIm.data(), 2);
          auto re = re0, im = im0;
          const std::size_t block = firstLen / 2;
          for (std::size_t b = 0; b < n; b += block)
            kn::ditStagesFrom(re.data() + b, im.data() + b, block,
                              twRe.data(), twIm.data(), 2);
          kn::ditStagesFrom(re.data(), im.data(), n, twRe.data(),
                            twIm.data(), firstLen);
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(fullRe[i], re[i]) << "n=" << n << " from " << firstLen;
            EXPECT_EQ(fullIm[i], im[i]) << "n=" << n << " from " << firstLen;
          }
          return 0;
        });
      }
    }
  }
}

TEST_F(KernelTiers, PointwiseComplexTiersMatch) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  const std::size_t n = 1027;  // odd: exercises the vector tails
  const auto a0 = testSpectrum(n, 4);
  const auto b = testSpectrum(n, 5);

  const auto runCmul = [&](kn::Isa isa, bool conj) {
    return under(isa, [&] {
      auto a = a0;
      if (conj)
        kn::cmulConjInterleaved(a.data(), b.data(), n);
      else
        kn::cmulInterleaved(a.data(), b.data(), n);
      return a;
    });
  };
  for (const bool conj : {false, true}) {
    const auto s = runCmul(kn::Isa::kScalar, conj);
    const auto v = runCmul(kn::Isa::kAvx2, conj);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = std::max(std::abs(s[i]), 1.0);
      EXPECT_NEAR(s[i].real(), v[i].real(), 4.0 * kEps * scale);
      EXPECT_NEAR(s[i].imag(), v[i].imag(), 4.0 * kEps * scale);
    }
  }

  const auto runDivide = [&](kn::Isa isa) {
    return under(isa, [&] {
      std::vector<dsp::Complex> out(n);
      kn::spectralDivide(a0.data(), b.data(), 1e-4, out.data(), n);
      return out;
    });
  };
  const auto ds = runDivide(kn::Isa::kScalar);
  const auto dv = runDivide(kn::Isa::kAvx2);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::max(std::abs(ds[i]), 1.0);
    EXPECT_NEAR(ds[i].real(), dv[i].real(), 8.0 * kEps * scale);
    EXPECT_NEAR(ds[i].imag(), dv[i].imag(), 8.0 * kEps * scale);
  }

  const double ms =
      under(kn::Isa::kScalar, [&] { return kn::maxNorm(a0.data(), n); });
  const double mv =
      under(kn::Isa::kAvx2, [&] { return kn::maxNorm(a0.data(), n); });
  EXPECT_NEAR(ms, mv, 4.0 * kEps * ms);
}

TEST_F(KernelTiers, ReductionTiersMatch) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  const std::size_t n = 1023;
  const auto a = testSignal(n, 6);
  const auto b = testSignal(n, 7);
  double absSum = 0.0;
  for (std::size_t i = 0; i < n; ++i) absSum += std::fabs(a[i] * b[i]);
  const double tol = 1e-12 * std::max(absSum, 1.0);

  EXPECT_NEAR(
      under(kn::Isa::kScalar, [&] { return kn::dotProduct(a.data(), b.data(), n); }),
      under(kn::Isa::kAvx2, [&] { return kn::dotProduct(a.data(), b.data(), n); }),
      tol);
  EXPECT_NEAR(
      under(kn::Isa::kScalar, [&] { return kn::sumSquares(a.data(), n); }),
      under(kn::Isa::kAvx2, [&] { return kn::sumSquares(a.data(), n); }), tol);
}

TEST_F(KernelTiers, VisibilityScanBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  // Resolution 18 exercises the scalar tail (18 % 4 != 0), 256 the main
  // vector loop.
  for (const std::size_t resolution : {18ul, 256ul}) {
    const geo::HeadBoundary head(0.072, 0.104, 0.091, resolution);
    for (int k = 0; k < 24; ++k) {
      const double theta = 15.0 * k;
      const geo::Vec2 p = geo::pointFromPolarDeg(theta, 0.2 + 0.01 * k);
      const auto ts =
          under(kn::Isa::kScalar, [&] { return head.tangentsFrom(p); });
      const auto tv =
          under(kn::Isa::kAvx2, [&] { return head.tangentsFrom(p); });
      EXPECT_EQ(ts.u1, tv.u1) << "theta " << theta;
      EXPECT_EQ(ts.u2, tv.u2) << "theta " << theta;
      const geo::Vec2 d = geo::directionFromAzimuthDeg(theta);
      const auto es =
          under(kn::Isa::kScalar, [&] { return head.terminators(d); });
      const auto ev = under(kn::Isa::kAvx2, [&] { return head.terminators(d); });
      EXPECT_EQ(es.u1, ev.u1) << "theta " << theta;
      EXPECT_EQ(es.u2, ev.u2) << "theta " << theta;
    }
  }
}

TEST_F(KernelTiers, SolveRobustEndToEndTiersMatch) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  // Forward-model measurements on a known head; the solve's hot loop is
  // scalar geometry plus the visibility kernel, which is bitwise identical
  // across tiers, so the full estimate should match to the last bit
  // (EXPECT_DOUBLE_EQ allows 4 ulp of slack).
  const head::HeadParameters truth{0.070, 0.104, 0.090};
  const geo::HeadBoundary head(truth.a, truth.b, truth.c, 256);
  Pcg32 rng(11);
  std::vector<core::FusionMeasurement> measurements;
  for (std::size_t i = 0; i < 10; ++i) {
    const double theta = 10.0 + 16.0 * static_cast<double>(i);
    const geo::Vec2 pos = geo::pointFromPolarDeg(theta, 0.30);
    core::FusionMeasurement m;
    m.delayLeftSec =
        geo::nearFieldPath(head, pos, geo::Ear::kLeft).length / kSpeedOfSound;
    m.delayRightSec =
        geo::nearFieldPath(head, pos, geo::Ear::kRight).length /
        kSpeedOfSound;
    m.imuAngleDeg = theta + rng.gaussian(0.0, 1.0);
    m.sourceIndex = i;
    measurements.push_back(m);
  }
  const auto solveUnder = [&](kn::Isa isa) {
    return under(isa, [&] {
      const core::SensorFusion fusion;
      return fusion.solveRobust(measurements);
    });
  };
  const auto rs = solveUnder(kn::Isa::kScalar);
  const auto rv = solveUnder(kn::Isa::kAvx2);
  EXPECT_TRUE(rs.usable);
  EXPECT_DOUBLE_EQ(rs.headParams.a, rv.headParams.a);
  EXPECT_DOUBLE_EQ(rs.headParams.b, rv.headParams.b);
  EXPECT_DOUBLE_EQ(rs.headParams.c, rv.headParams.c);
  EXPECT_DOUBLE_EQ(rs.finalObjectiveDeg2, rv.finalObjectiveDeg2);
  EXPECT_EQ(rs.localizedCount, rv.localizedCount);
}

// --- Bitwise kernels ------------------------------------------------------

/// Runs f(isa) for the scalar tier, and for the AVX2 tier when present;
/// the AVX2 half of a test skips itself when the tier is unavailable.
class BitwiseKernels : public KernelTiers,
                       public ::testing::WithParamInterface<kn::Isa> {
 protected:
  void SetUp() override {
    KernelTiers::SetUp();
    if (GetParam() == kn::Isa::kAvx2 && !haveAvx2_)
      GTEST_SKIP() << "AVX2 tier unavailable";
    ASSERT_TRUE(kn::setIsaOverride(GetParam()));
  }
};

INSTANTIATE_TEST_SUITE_P(Tiers, BitwiseKernels,
                         ::testing::Values(kn::Isa::kScalar, kn::Isa::kAvx2),
                         [](const auto& info) {
                           return std::string(kn::isaName(info.param));
                         });

/// DIT stages firstLen..n, one stage per pass. `fused` computes v*w as the
/// AVX2 tier's fnmadd/fmadd do (one rounding each), else as the scalar
/// tier's separate multiplies and adds.
void oneStagePerPass(std::vector<double>& re, std::vector<double>& im,
                     std::size_t n, const std::vector<double>& twRe,
                     const std::vector<double>& twIm, std::size_t firstLen,
                     bool fused) {
  for (std::size_t len = std::max<std::size_t>(firstLen, 2); len <= n;
       len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double br = re[i + k + half], bi = im[i + k + half];
        double vr = br, vi = bi;  // len == 2: twiddle 1
        if (len >= 4) {
          const double wr = twRe[half - 2 + k], wi = twIm[half - 2 + k];
          vr = fused ? std::fma(-bi, wi, br * wr) : br * wr - bi * wi;
          vi = fused ? std::fma(bi, wr, br * wi) : br * wi + bi * wr;
        }
        const double ur = re[i + k], ui = im[i + k];
        re[i + k] = ur + vr;
        im[i + k] = ui + vi;
        re[i + k + half] = ur - vr;
        im[i + k + half] = ui - vi;
      }
    }
  }
}

TEST_P(BitwiseKernels, DitCascadeMatchesOneStagePerPass) {
  const bool fused = GetParam() == kn::Isa::kAvx2;
  std::vector<double> twRe, twIm;
  stageTables(65536, twRe, twIm);  // a prefix serves every smaller n
  for (std::size_t n = 2; n <= 65536; n <<= 1) {
    const auto z = testSpectrum(n, static_cast<int>(n % 97));
    std::vector<double> re0(n), im0(n);
    for (std::size_t i = 0; i < n; ++i) {
      re0[i] = z[i].real();
      im0[i] = z[i].imag();
    }
    for (std::size_t firstLen = 2; firstLen <= 2 * n; firstLen <<= 1) {
      auto re = re0, im = im0;
      kn::ditStagesFrom(re.data(), im.data(), n, twRe.data(), twIm.data(),
                        firstLen);
      auto wantRe = re0, wantIm = im0;
      oneStagePerPass(wantRe, wantIm, n, twRe, twIm, firstLen, fused);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < n; ++i)
        mismatches += (re[i] != wantRe[i]) + (im[i] != wantIm[i]);
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " from " << firstLen;
    }
  }
}

// Each AVX2 kernel below must give the scalar tier's bits. Lengths run
// through every vector-tail remainder.

TEST_F(KernelTiers, GatherBitReversedBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (std::size_t n = 2; n <= 1024; n <<= 1) {
    std::vector<std::uint32_t> rev(n);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev[i] = static_cast<std::uint32_t>(j);
    }
    const auto in = testSpectrum(n, 8);
    expectTiersEqual([&] {
      std::vector<double> out(2 * n);
      kn::gatherBitReversed(in.data(), rev.data(), n, out.data(),
                            out.data() + n);
      return out;
    });
  }
}

TEST_F(KernelTiers, InterleaveScaledBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (std::size_t n = 0; n <= 37; ++n) {
    const auto re = testSignal(n, 9), im = testSignal(n, 10);
    for (const double scale : {1.0, 1.0 / 3.0}) {
      expectTiersEqual([&] {
        std::vector<double> out(2 * n);
        kn::interleaveScaled(re.data(), im.data(), n, scale, out.data());
        return out;
      });
    }
  }
}

TEST_F(KernelTiers, RfftSplitAndIrfftMergeBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (std::size_t h = 1; h <= 41; ++h) {
    const auto zRe = testSignal(h, 11), zIm = testSignal(h, 12);
    const auto w = testSpectrum(h, 13);
    std::vector<double> wr(h), wi(h);
    for (std::size_t k = 0; k < h; ++k) {
      wr[k] = w[k].real();
      wi[k] = w[k].imag();
    }
    expectTiersEqual([&] {
      std::vector<dsp::Complex> out(h + 1);
      kn::rfftSplit(zRe.data(), zIm.data(), h, wr.data(), wi.data(),
                    out.data());
      const auto* d = reinterpret_cast<const double*>(out.data());
      return std::vector<double>(d, d + 2 * (h + 1));
    });
    const auto x = testSpectrum(h + 1, 14);
    expectTiersEqual([&] {
      std::vector<dsp::Complex> z(h);
      kn::irfftMerge(x.data(), h, wr.data(), wi.data(), z.data());
      const auto* d = reinterpret_cast<const double*>(z.data());
      return std::vector<double>(d, d + 2 * h);
    });
  }
}

TEST_F(KernelTiers, MagnitudesBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (std::size_t n = 0; n <= 37; ++n) {
    auto x = testSpectrum(n, 15);
    if (n > 2) x[1] = {0.0, -0.0};
    expectTiersEqual([&] {
      std::vector<double> out(n);
      kn::magnitudes(x.data(), n, out.data());
      return out;
    });
  }
}

TEST_F(KernelTiers, PhatWeightBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 0; n <= 37; ++n) {
    auto a = testSpectrum(n, 20);
    const auto b = testSpectrum(n, 21);
    // Exact zeros, a cross term at the floor, one just above it and a NaN
    // land in different vector lanes and in the scalar tail.
    if (n > 1) a[1] = {0.0, -0.0};
    if (n > 6) a[6] = b[6] * (1e-15 / std::norm(b[6]));
    if (n > 9) a[9] = b[9] * (2e-15 / std::norm(b[9]));
    if (n > 14) a[14] = {nan, 0.5};
    const auto run = [&](kn::Isa isa) {
      return under(isa, [&] {
        auto x = a;
        kn::phatWeight(x.data(), b.data(), n, 1e-15);
        return x;
      });
    };
    const auto s = run(kn::Isa::kScalar);
    const auto v = run(kn::Isa::kAvx2);
    // Bit patterns, so the sign of a zero counts too.
    ASSERT_EQ(s.size(), v.size());
    if (n > 0) {
      EXPECT_EQ(std::memcmp(s.data(), v.data(), n * sizeof(dsp::Complex)), 0)
          << "n = " << n;
    }
  }
}

TEST_F(KernelTiers, FirFilterBitwiseAcrossTiers) {
  if (!haveAvx2_) GTEST_SKIP() << "AVX2 tier unavailable";
  for (const std::size_t taps : {1ul, 3ul, 9ul, 33ul}) {
    const auto w = testSignal(taps, 16);
    for (std::size_t count = 0; count <= 40; ++count) {
      const auto x = testSignal(count + taps, 17);
      expectTiersEqual([&] {
        std::vector<double> out(count);
        kn::firFilter(x.data(), w.data(), taps, count, out.data());
        return out;
      });
    }
  }
}

TEST_P(BitwiseKernels, LagWindowMatchesPerLagDotProduct) {
  for (const std::size_t la : {0ul, 1ul, 7ul, 8ul, 23ul, 256ul, 261ul}) {
    for (const std::size_t lb : {1ul, 9ul, 31ul, 256ul}) {
      const auto a = testSignal(la, 18);
      const auto b = testSignal(lb, 19);
      for (const long reach : {1L, 9L, 40L}) {
        const long lo = -reach - 3, hi = reach;
        std::vector<double> got(static_cast<std::size_t>(hi - lo + 1), -1.0);
        kn::lagDotProducts(a.data(), la, b.data(), lb, lo, hi, got.data());
        for (long lag = lo; lag <= hi; ++lag) {
          const long t0 = std::max(0L, -lag);
          const long t1 =
              std::min(static_cast<long>(la), static_cast<long>(lb) - lag);
          const double want =
              t1 > t0 ? kn::dotProduct(a.data() + t0, b.data() + t0 + lag,
                                       static_cast<std::size_t>(t1 - t0))
                      : 0.0;
          EXPECT_EQ(got[static_cast<std::size_t>(lag - lo)], want)
              << "la " << la << " lb " << lb << " lag " << lag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace uniq
