#include "core/aoa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <utility>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"  // square, clamp
#include "common/thread_pool.h"
#include "dsp/correlation.h"
#include "dsp/deconvolution.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/fractional_delay.h"
#include "dsp/kernels/kernels.h"
#include "dsp/peak_picking.h"
#include "dsp/spectrum.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::core {

namespace {

/// Weight of the first-tap delay term in the known-source objective (paper
/// Eq. 9's lambda, chosen "after training"), in units of [1/seconds] so the
/// delay mismatch is commensurate with the correlation terms.
constexpr double kLambdaPerSecond = 3000.0;
/// Angle grid step for the known-source search (degrees).
constexpr double kSearchStepDeg = 1.0;
/// Max correlation lag when matching channel shapes (samples). The channels
/// are pre-aligned, so the shape match computes only these lags (plus one
/// neighbour each side) as direct dot products.
constexpr double kShapeMaxLagSamples = 8.0;
static_assert(kShapeMaxLagSamples >= 1.0);

/// Argmin over (angle, score) pairs plus the decision margin: the best
/// score among candidates >= 10 degrees from the winner. Scanned in grid
/// order, so the result is thread-count independent.
AoaEstimate pickBest(const std::vector<double>& angles,
                     const std::vector<double>& scores,
                     const char* marginMetric) {
  AoaEstimate best;
  best.score = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < angles.size(); ++c) {
    if (scores[c] < best.score) {
      best.score = scores[c];
      best.angleDeg = angles[c];
    }
  }
  best.runnerUpScore = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < angles.size(); ++c) {
    if (std::fabs(angles[c] - best.angleDeg) < 10.0) continue;
    best.runnerUpScore = std::min(best.runnerUpScore, scores[c]);
  }
  best.scoreMargin = std::isfinite(best.runnerUpScore)
                         ? best.runnerUpScore - best.score
                         : 0.0;
  // Soft-saturating margin->confidence map: 0 margin -> 0, margin == 0.2
  // (a solid win on either objective's scale) -> 0.5, large margins -> 1.
  best.confidence = best.scoreMargin / (best.scoreMargin + 0.2);
  obs::registry()
      .histogram(marginMetric, obs::HistogramOptions{1e-4, 2.0, 24})
      .observe(best.scoreMargin);
  return best;
}

/// |z| over bins [bLo, bHi] of a half spectrum (empty when bHi < bLo).
std::vector<double> bandMagnitudes(std::span<const dsp::Complex> spectrum,
                                   std::size_t bLo, std::size_t bHi) {
  std::vector<double> out;
  if (bHi < bLo) return out;
  out.resize(bHi - bLo + 1);
  dsp::kernels::magnitudes(spectrum.data() + bLo, out.size(), out.data());
  return out;
}

/// The same, for the half spectrum of `signal` at plan size n. The
/// spectrum itself lives only in the thread's scratch arena.
std::vector<double> bandMagnitudes(const dsp::FftPlan& plan,
                                   std::span<const double> signal,
                                   std::size_t bLo, std::size_t bHi) {
  common::ArenaScope scope(common::simdScratch());
  const auto spectrum = dsp::scratchComplex(plan.size() / 2 + 1);
  plan.rfft(signal, spectrum);
  return bandMagnitudes(spectrum, bLo, bHi);
}

/// Size of the one transform each template's unknown-source magnitudes
/// come from, whatever the query's FFT size. A 192-sample template's
/// spectrum is smooth on this grid: linear interpolation onto a 16384-point
/// query's bins stays within ~0.1% RMS of its exact magnitudes.
constexpr std::size_t kTemplateFftSize = 2048;

/// Writes bins bLo, bLo + 1, ... of an n-point magnitude spectrum into
/// `out`, from the m / 2 + 1 bins `coarse` of the same signal's m-point one
/// (n, m powers of two, so bin k sits at the exact coarse position
/// k * m / n). At or below m the bins are read directly; above it they are
/// interpolated linearly between their two coarse neighbours.
void interpolateBand(std::span<const double> coarse, std::size_t m,
                     std::size_t n, std::size_t bLo, std::span<double> out) {
  if (n <= m) {
    const std::size_t stride = m / n;
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j] = coarse[(bLo + j) * stride];
    return;
  }
  // Bin k = i * r + q (r = n / m, 0 <= q < r) lies q / r of the way from
  // coarse bin i to i + 1; each coarse interval fills its run of outputs.
  const std::size_t r = n / m;
  const double step = static_cast<double>(m) / static_cast<double>(n);
  const std::size_t last = coarse.size() - 1;
  std::size_t k = bLo;
  for (std::size_t j = 0; j < out.size();) {
    const std::size_t i = k / r;
    const double lo = coarse[i];
    const double d = coarse[std::min(i + 1, last)] - lo;
    const std::size_t end = std::min(out.size(), j + (i + 1) * r - k);
    // t steps through multiples of a power of two below 1: exact.
    for (double t = static_cast<double>(k - i * r) * step; j < end;
         ++j, t += step)
      out[j] = lo + t * d;
    k = (i + 1) * r;
  }
}

}  // namespace

AoaEstimator::AoaEstimator(const FarFieldTable& table, Options opts)
    : table_(table), opts_(opts), magSize_(kTemplateFftSize) {
  UNIQ_REQUIRE(table_.byDegree.size() == 181, "table must cover 0..180");
  normLeft_.reserve(table_.byDegree.size());
  normRight_.reserve(table_.byDegree.size());
  for (const auto& tmpl : table_.byDegree) {
    normLeft_.push_back(dsp::l2Norm(tmpl.left));
    normRight_.push_back(dsp::l2Norm(tmpl.right));
    magSize_ = std::max(
        magSize_,
        dsp::nextPowerOfTwo(std::max(tmpl.left.size(), tmpl.right.size())));
  }
  mag_.resize(table_.byDegree.size());
}

std::vector<const AoaEstimator::TemplateMagnitudes*>
AoaEstimator::templateMagnitudes(
    const std::vector<std::size_t>& degreeIndices) const {
  std::lock_guard<std::mutex> lock(magMutex_);
  std::vector<std::size_t> missing;
  for (std::size_t idx : degreeIndices)
    if (!mag_[idx]) missing.push_back(idx);
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  static obs::Counter& fills =
      obs::registry().counter("aoa.template_cache.fills");
  static obs::Counter& hits =
      obs::registry().counter("aoa.template_cache.hits");
  fills.inc(missing.size());
  hits.inc(degreeIndices.size() - missing.size());

  // The templates are far shorter than the plan; rfft treats the rest as
  // zeros and skips the stages that would only transform them.
  const auto plan = dsp::fftPlan(magSize_);
  for (std::size_t idx : missing) {
    const auto& tmpl = table_.byDegree[idx];
    auto entry = std::make_unique<TemplateMagnitudes>();
    entry->left = bandMagnitudes(*plan, tmpl.left, 0, magSize_ / 2);
    entry->right = bandMagnitudes(*plan, tmpl.right, 0, magSize_ / 2);
    mag_[idx] = std::move(entry);
  }
  std::vector<const TemplateMagnitudes*> out;
  out.reserve(degreeIndices.size());
  for (std::size_t idx : degreeIndices) out.push_back(mag_[idx].get());
  return out;
}

double AoaEstimator::templateDelaySec(double thetaDeg) const {
  const auto idx = static_cast<std::size_t>(
      clamp(std::lround(thetaDeg), 0.0, 180.0));
  return (table_.tapLeftSamples[idx] - table_.tapRightSamples[idx]) /
         table_.sampleRate;
}

namespace {

struct ExtractedChannel {
  std::vector<double> h;
  double tapSec = 0.0;
  bool valid = false;
};

/// One ear's channel: the recording deconvolved by the source, whose half
/// spectrum `fx` and regularization floor the caller supplies.
ExtractedChannel extractChannel(const std::vector<double>& recording,
                                std::span<const dsp::Complex> fx,
                                double floor, double sampleRate) {
  ExtractedChannel out;
  out.h = dsp::deconvolveSpectrum(recording, fx, floor, 512);
  const auto tap = dsp::findFirstTap(out.h);
  if (!tap) return out;
  out.tapSec = tap->position / sampleRate;
  const auto hi = static_cast<long>(
      std::ceil(tap->position + kHeadWindowSec * sampleRate));
  const auto lo = static_cast<long>(std::floor(tap->position - 16.0));
  for (long i = 0; i < static_cast<long>(out.h.size()); ++i) {
    if (i < lo || i > hi) out.h[static_cast<std::size_t>(i)] = 0.0;
  }
  out.valid = true;
  return out;
}

/// Both ears' channels for one known-source query, as dsp::deconvolve
/// would extract them, with the source transformed and its floor scanned
/// once when the two recordings share an FFT size.
std::pair<ExtractedChannel, ExtractedChannel> extractChannels(
    const std::vector<double>& left, const std::vector<double>& right,
    const std::vector<double>& source, double sampleRate) {
  common::ArenaScope scope(common::simdScratch());
  std::size_t n = 0;
  std::span<dsp::Complex> fx;
  double floor = 0.0;
  const auto ear = [&](const std::vector<double>& recording) {
    const std::size_t earN =
        dsp::nextPowerOfTwo(recording.size() + source.size());
    if (earN != n) {
      n = earN;
      fx = dsp::scratchComplex(n / 2 + 1);
      dsp::fftPlan(n)->rfft(source, fx);
      floor = dsp::regularizationFloor(fx, dsp::kRelativeRegularization);
    }
    return extractChannel(recording, fx, floor, sampleRate);
  };
  auto chL = ear(left);
  return {std::move(chL), ear(right)};
}

}  // namespace

double AoaEstimator::knownSourceObjective(
    std::size_t degreeIndex, double t0Sec, const std::vector<double>& hLeft,
    const std::vector<double>& hRight) const {
  const auto& tmpl = table_.byDegree[degreeIndex];
  const double tTheta = templateDelaySec(static_cast<double>(degreeIndex));
  const auto cL = dsp::boundedNormalizedCorrelationPeak(
      hLeft, tmpl.left, normLeft_[degreeIndex], kShapeMaxLagSamples);
  const auto cR = dsp::boundedNormalizedCorrelationPeak(
      hRight, tmpl.right, normRight_[degreeIndex], kShapeMaxLagSamples);
  return kLambdaPerSecond * std::fabs(t0Sec - tTheta) +
         (1.0 - cL.value) + (1.0 - cR.value);
}

AoaEstimate AoaEstimator::estimateKnown(
    const std::vector<double>& leftRecording,
    const std::vector<double>& rightRecording,
    const std::vector<double>& source) const {
  UNIQ_SPAN("aoa.known");
  UNIQ_REQUIRE(!leftRecording.empty() && !rightRecording.empty() &&
                   !source.empty(),
               "empty input");
  const double fs = table_.sampleRate;
  const auto [chL, chR] =
      extractChannels(leftRecording, rightRecording, source, fs);
  if (!chL.valid || !chR.valid) {
    // No usable first taps (dropout, dead channel, buried chirp): the Eq. 9
    // objective has nothing to anchor on. Degrade to the unknown-source
    // path, which needs only the raw recordings, rather than throwing —
    // a localization consumer prefers a low-confidence estimate to none.
    static obs::Counter& fallbacks =
        obs::registry().counter("aoa.known.fallbacks");
    fallbacks.inc();
    AoaEstimate est = estimateUnknown(leftRecording, rightRecording);
    est.degraded = true;
    est.confidence *= 0.5;
    return est;
  }
  const double t0 = chL.tapSec - chR.tapSec;

  // Pre-align each measured channel to the template anchor so the shape
  // correlation compares like with like: shift the channel so its first tap
  // lands at that angle's template tap position, and compute only the
  // template-length prefix the correlation reads. Angles whose template
  // taps (and lengths) agree share one aligned channel per ear — on a table
  // whose left taps all sit at one sample, the left ear is shifted once.
  // The alignments, then the angles, fan out across the pool; the argmin
  // below scans in grid order, giving thread-count-independent results.
  std::vector<double> thetas;
  for (double theta = 0.0; theta <= 180.0; theta += kSearchStepDeg)
    thetas.push_back(theta);
  struct Alignment {
    const std::vector<double>* h;
    double shift;
    std::size_t length;
  };
  std::vector<Alignment> alignments;
  std::map<std::pair<double, std::size_t>, std::size_t> slotLeft, slotRight;
  const auto slotFor = [&](auto& slots, const std::vector<double>& h,
                           double shift, std::size_t length) {
    const auto [it, added] =
        slots.try_emplace({shift, length}, alignments.size());
    if (added) alignments.push_back({&h, shift, length});
    return it->second;
  };
  std::vector<std::size_t> degree(thetas.size()), left(thetas.size()),
      right(thetas.size());
  for (std::size_t c = 0; c < thetas.size(); ++c) {
    const auto idx = static_cast<std::size_t>(std::lround(thetas[c]));
    const auto& tmpl = table_.byDegree[idx];
    degree[c] = idx;
    left[c] = slotFor(slotLeft, chL.h,
                      table_.tapLeftSamples[idx] - chL.tapSec * fs,
                      tmpl.left.size());
    right[c] = slotFor(slotRight, chR.h,
                       table_.tapRightSamples[idx] - chR.tapSec * fs,
                       tmpl.right.size());
  }
  std::vector<std::vector<double>> aligned(alignments.size());
  common::parallelFor(0, alignments.size(), [&](std::size_t j) {
    const auto& a = alignments[j];
    aligned[j] = dsp::fractionalShift(*a.h, a.shift,
                                      dsp::kDefaultSincHalfWidth, a.length);
  });
  std::vector<double> scores(thetas.size());
  common::parallelFor(0, thetas.size(), [&](std::size_t c) {
    scores[c] = knownSourceObjective(degree[c], t0, aligned[left[c]],
                                     aligned[right[c]]);
  });

  return pickBest(thetas, scores, "aoa.known.margin");
}

std::vector<double> AoaEstimator::candidateAnglesForDelay(
    double deltaSec) const {
  // Find all grid angles where the template interaural delay crosses the
  // observed delay.
  std::vector<double> candidates;
  double prev = templateDelaySec(0.0) - deltaSec;
  for (int deg = 1; deg <= 180; ++deg) {
    const double cur = templateDelaySec(static_cast<double>(deg)) - deltaSec;
    if (prev == 0.0) candidates.push_back(static_cast<double>(deg - 1));
    else if ((prev < 0) != (cur < 0)) {
      const double f = prev / (prev - cur);
      candidates.push_back(static_cast<double>(deg - 1) + f);
    }
    prev = cur;
  }
  if (prev == 0.0) candidates.push_back(180.0);
  return candidates;
}

AoaEstimate AoaEstimator::estimateUnknown(
    const std::vector<double>& leftRecording,
    const std::vector<double>& rightRecording) const {
  UNIQ_SPAN("aoa.unknown");
  UNIQ_REQUIRE(!leftRecording.empty() && !rightRecording.empty(),
               "empty input");
  const double fs = table_.sampleRate;

  // Band magnitudes for the Eq. 11 residual (below), and the GCC-PHAT
  // spectra: both transform the recordings, so one frame spanning both whole
  // recordings at GCC-PHAT's FFT size reads its magnitudes from the GCC-PHAT
  // spectra instead of transforming them again.
  //
  // Two robustness measures for *estimated* templates:
  //  - Magnitude form: the interaural delay already selected the
  //    candidates, so the residual compares level spectra only. Phase at
  //    several kHz rotates wildly per sample of template timing error.
  //    As |L * H_R| = |L| * |H_R|, magnitudes are taken once per frame and
  //    once per cached template, and scoring is multiply-adds.
  //  - Frame aggregation: tonal sources (music, speech) excite different
  //    sparse harmonic sets over time; summing per-frame residuals pools
  //    quasi-independent evidence instead of betting on one spectrum.
  const std::size_t total = std::min(leftRecording.size(),
                                     rightRecording.size());
  const std::size_t frameLen = opts_.frameAggregation ? 8192 : total;
  const std::size_t hop = frameLen / 2;
  std::vector<std::size_t> frameStarts;
  if (total <= frameLen) {
    frameStarts.push_back(0);
  } else {
    for (std::size_t s = 0; s + frameLen <= total; s += hop)
      frameStarts.push_back(s);
  }

  const std::size_t n = dsp::nextPowerOfTwo(
      std::max(std::min(total, frameLen), table_.byDegree[0].left.size()) *
      2);
  const std::size_t bLo = dsp::frequencyToBin(kAoaBandLoHz, n, fs);
  const std::size_t bHi =
      std::min(dsp::frequencyToBin(kAoaBandHiHz, n, fs), n / 2);

  common::ArenaScope scope(common::simdScratch());
  const std::size_t gccN =
      dsp::gccPhatSize(leftRecording.size(), rightRecording.size());
  const auto specL = dsp::scratchComplex(gccN / 2 + 1);
  const auto specR = dsp::scratchComplex(gccN / 2 + 1);
  dsp::gccPhatSpectra(leftRecording, rightRecording, specL, specR);

  // Per-frame band magnitudes of both ears (real signals; bins above n/2
  // are redundant and the Eq. 11 band never reaches them). Each frame is a
  // span of the recording, which rfft zero-pads to n.
  std::vector<std::vector<double>> magL, magR;
  if (frameStarts.size() == 1 && total == leftRecording.size() &&
      total == rightRecording.size() && n == gccN) {
    magL.push_back(bandMagnitudes(specL, bLo, bHi));
    magR.push_back(bandMagnitudes(specR, bLo, bHi));
  } else {
    const auto plan = dsp::fftPlan(n);
    const std::span<const double> left(leftRecording), right(rightRecording);
    for (std::size_t start : frameStarts) {
      const std::size_t len = std::min(frameLen, total - start);
      magL.push_back(
          bandMagnitudes(*plan, left.subspan(start, len), bLo, bHi));
      magR.push_back(
          bandMagnitudes(*plan, right.subspan(start, len), bLo, bHi));
    }
  }

  // Relative channel via GCC-PHAT; each strong peak is a candidate
  // interaural delay (paper Figure 14: pinna multipath produces several).
  const double maxItdSec = 1.2e-3;  // generous physical bound for a head
  const auto rel = dsp::gccPhatFromSpectra(
      specL, specR, leftRecording.size(), rightRecording.size());
  const auto taps = dsp::findTaps(rel, kAoaPeakRelativeThreshold);
  const double zeroLag = static_cast<double>(rightRecording.size() - 1);

  std::vector<double> candidates;
  for (const auto& tap : taps) {
    const double lag = tap.position - zeroLag;  // right lags left by `lag`
    const double delta = -lag / fs;             // t0 = tapL - tapR = -lag/fs
    if (std::fabs(delta) > maxItdSec) continue;
    for (double ang : candidateAnglesForDelay(delta))
      candidates.push_back(ang);
  }
  if (candidates.empty()) {
    for (double ang = 0.0; ang <= 180.0; ang += 4.0)
      candidates.push_back(ang);
  }

  // Disambiguate with the multiplicative relative-channel match (Eq. 11):
  // L(f) * H_R(theta)(f) should equal R(f) * H_L(theta)(f), in the
  // magnitude form above. Every candidate's template magnitudes come from
  // the estimator's cache (filled for the angles it has not seen yet) and
  // are interpolated onto this query's band bins.
  std::vector<std::size_t> indices;
  indices.reserve(candidates.size());
  for (double theta : candidates)
    indices.push_back(static_cast<std::size_t>(
        clamp(std::lround(theta), 0.0,
              static_cast<double>(table_.byDegree.size() - 1))));
  const auto templates = templateMagnitudes(indices);

  // Score every candidate independently across the pool, then argmin in
  // candidate order (deterministic for any thread count).
  const std::size_t bandLen = magL.front().size();
  std::vector<double> scores(candidates.size());
  common::parallelFor(
      0, candidates.size(),
      [&](std::size_t c) {
        common::ArenaScope candidateScope(common::simdScratch());
        const auto hl = dsp::scratchDoubles(bandLen);
        const auto hr = dsp::scratchDoubles(bandLen);
        interpolateBand(templates[c]->left, magSize_, n, bLo, hl);
        interpolateBand(templates[c]->right, magSize_, n, bLo, hr);
        double score = 0.0;
        for (std::size_t f = 0; f < magL.size(); ++f) {
          const auto& l = magL[f];
          const auto& r = magR[f];
          double num = 0.0, den = 0.0;
          for (std::size_t k = 0; k < l.size(); ++k) {
            const double lhs = l[k] * hr[k];
            const double rhs = r[k] * hl[k];
            num += square(lhs - rhs);
            den += square(lhs) + square(rhs);
          }
          score += den > 1e-30 ? num / den : 2.0;
        }
        scores[c] = score / static_cast<double>(magL.size());
      });

  return pickBest(candidates, scores, "aoa.unknown.margin");
}

}  // namespace uniq::core
