#include "core/aoa.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"  // square, clamp, angularDistanceDeg
#include "common/thread_pool.h"
#include "dsp/correlation.h"
#include "dsp/deconvolution.h"
#include "dsp/fft_plan.h"
#include "dsp/fractional_delay.h"
#include "dsp/peak_picking.h"
#include "dsp/spectrum.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::core {

namespace {

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

}  // namespace

AoaEstimator::AoaEstimator(const FarFieldTable& table, Options opts)
    : table_(table), opts_(opts) {
  UNIQ_REQUIRE(table_.byDegree.size() == 181, "table must cover 0..180");
  UNIQ_REQUIRE(opts_.lambdaPerSecond >= 0, "lambda must be >= 0");
}

std::shared_ptr<const AoaEstimator::TemplateSpectra>
AoaEstimator::cachedTemplateSpectra(std::size_t degreeIndex,
                                    std::size_t n) const {
  std::lock_guard<std::mutex> lock(specMutex_);
  if (specN_ != n) {
    specN_ = n;
    spec_.assign(table_.byDegree.size(), nullptr);
  }
  auto& slot = spec_[degreeIndex];
  if (!slot) {
    static obs::Counter& fills =
        obs::registry().counter("aoa.template_cache.fills");
    fills.inc();
    const auto plan = dsp::fftPlan(n);
    auto spectra = std::make_shared<TemplateSpectra>();
    const auto& tmpl = table_.byDegree[degreeIndex];
    std::vector<double> padded(n, 0.0);
    std::copy(tmpl.left.begin(), tmpl.left.end(), padded.begin());
    spectra->left = plan->rfft(padded);
    std::fill(padded.begin(), padded.end(), 0.0);
    std::copy(tmpl.right.begin(), tmpl.right.end(), padded.begin());
    spectra->right = plan->rfft(padded);
    slot = std::move(spectra);
  } else {
    static obs::Counter& hits =
        obs::registry().counter("aoa.template_cache.hits");
    hits.inc();
  }
  return slot;
}

void AoaEstimator::prefillTemplateSpectra(
    const std::vector<std::size_t>& degreeIndices, std::size_t n) const {
  if (!opts_.cacheTemplateSpectra) return;
  std::lock_guard<std::mutex> lock(specMutex_);
  if (specN_ != n) {
    specN_ = n;
    spec_.assign(table_.byDegree.size(), nullptr);
  }
  std::vector<std::size_t> missing;
  for (std::size_t idx : degreeIndices)
    if (!spec_[idx]) missing.push_back(idx);
  if (missing.empty()) return;
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());

  // One batched pass over every missing left/right template pair.
  std::vector<std::vector<double>> padded(
      2 * missing.size(), std::vector<double>(n, 0.0));
  for (std::size_t m = 0; m < missing.size(); ++m) {
    const auto& tmpl = table_.byDegree[missing[m]];
    std::copy(tmpl.left.begin(), tmpl.left.end(), padded[2 * m].begin());
    std::copy(tmpl.right.begin(), tmpl.right.end(),
              padded[2 * m + 1].begin());
  }
  const auto plan = dsp::fftPlan(n);
  auto spectra = plan->rfftBatch(padded);
  static obs::Counter& fills =
      obs::registry().counter("aoa.template_cache.fills");
  fills.inc(missing.size());
  for (std::size_t m = 0; m < missing.size(); ++m) {
    auto entry = std::make_shared<TemplateSpectra>();
    entry->left = std::move(spectra[2 * m]);
    entry->right = std::move(spectra[2 * m + 1]);
    spec_[missing[m]] = std::move(entry);
  }
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

ExtractedChannel extractChannel(const std::vector<double>& recording,
                                const std::vector<double>& source,
                                double sampleRate, double regularization,
                                double headWindowSec) {
  ExtractedChannel out;
  dsp::DeconvolutionOptions dopts;
  dopts.relativeRegularization = regularization;
  dopts.responseLength = 512;
  out.h = dsp::deconvolve(recording, source, dopts);
  dsp::FirstTapOptions tapOpts;
  const auto tap = dsp::findFirstTap(out.h, tapOpts);
  if (!tap) return out;
  out.tapSec = tap->position / sampleRate;
  const auto hi = static_cast<long>(
      std::ceil(tap->position + headWindowSec * sampleRate));
  const auto lo = static_cast<long>(std::floor(tap->position - 16.0));
  for (long i = 0; i < static_cast<long>(out.h.size()); ++i) {
    if (i < lo || i > hi) out.h[static_cast<std::size_t>(i)] = 0.0;
  }
  out.valid = true;
  return out;
}

}  // namespace

double AoaEstimator::knownSourceObjective(
    double thetaDeg, double t0Sec, const std::vector<double>& hLeft,
    const std::vector<double>& hRight) const {
  const auto& tmpl = table_.at(thetaDeg);
  const double tTheta = templateDelaySec(thetaDeg);
  const auto cL = dsp::normalizedCorrelationPeak(hLeft, tmpl.left,
                                                 opts_.shapeMaxLagSamples);
  const auto cR = dsp::normalizedCorrelationPeak(hRight, tmpl.right,
                                                 opts_.shapeMaxLagSamples);
  return opts_.lambdaPerSecond * std::fabs(t0Sec - tTheta) +
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
  const auto chL = extractChannel(leftRecording, source, fs,
                                  opts_.relativeRegularization,
                                  opts_.headWindowSec);
  const auto chR = extractChannel(rightRecording, source, fs,
                                  opts_.relativeRegularization,
                                  opts_.headWindowSec);
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
  // lands at that angle's template tap position, per candidate angle. Each
  // angle scores independently, so the sweep fans out across the pool; the
  // argmin below scans in grid order, giving thread-count-independent
  // results.
  std::vector<double> thetas;
  for (double theta = 0.0; theta <= 180.0; theta += opts_.searchStepDeg)
    thetas.push_back(theta);
  std::vector<double> scores(thetas.size());
  common::parallelFor(
      0, thetas.size(),
      [&](std::size_t c) {
        const double theta = thetas[c];
        const auto idx = static_cast<std::size_t>(std::lround(theta));
        auto alignedL = dsp::fractionalShift(
            chL.h, table_.tapLeftSamples[idx] - chL.tapSec * fs);
        auto alignedR = dsp::fractionalShift(
            chR.h, table_.tapRightSamples[idx] - chR.tapSec * fs);
        alignedL.resize(table_.byDegree[idx].left.size(), 0.0);
        alignedR.resize(table_.byDegree[idx].right.size(), 0.0);
        scores[c] = knownSourceObjective(theta, t0, alignedL, alignedR);
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

  // Relative channel via GCC-PHAT; each strong peak is a candidate
  // interaural delay (paper Figure 14: pinna multipath produces several).
  const double maxItdSec = 1.2e-3;  // generous physical bound for a head
  auto rel = dsp::gccPhat(leftRecording, rightRecording);
  dsp::FirstTapOptions peakOpts;
  peakOpts.relativeThreshold = opts_.peakRelativeThreshold;
  const auto taps = dsp::findTaps(rel, peakOpts);
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
  // L(f) * H_R(theta)(f) should equal R(f) * H_L(theta)(f).
  //
  // Two robustness measures for *estimated* templates:
  //  - Magnitude form: the interaural delay already selected the
  //    candidates, so the residual compares level spectra only. Phase at
  //    several kHz rotates wildly per sample of template timing error.
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
  const std::size_t bLo = dsp::frequencyToBin(opts_.bandLoHz, n, fs);
  const std::size_t bHi =
      std::min(dsp::frequencyToBin(opts_.bandHiHz, n, fs), n / 2);

  // Per-frame half spectra of both ears (real signals; bins above n/2 are
  // redundant and the Eq. 11 band never reaches them). All frames of both
  // ears go through one batched-FFT pass.
  const auto plan = dsp::fftPlan(n);
  std::vector<std::vector<double>> frames(2 * frameStarts.size(),
                                          std::vector<double>(n, 0.0));
  for (std::size_t f = 0; f < frameStarts.size(); ++f) {
    const std::size_t start = frameStarts[f];
    const std::size_t len = std::min(frameLen, total - start);
    for (std::size_t i = 0; i < len; ++i) {
      frames[2 * f][i] = leftRecording[start + i];
      frames[2 * f + 1][i] = rightRecording[start + i];
    }
  }
  auto frameSpectra = plan->rfftBatch(frames);
  std::vector<std::vector<dsp::Complex>> framesL, framesR;
  for (std::size_t f = 0; f < frameStarts.size(); ++f) {
    framesL.push_back(std::move(frameSpectra[2 * f]));
    framesR.push_back(std::move(frameSpectra[2 * f + 1]));
  }

  // Batched serving: compute every candidate's template spectra in one
  // batched pass up front, so the scoring loop below is all cache hits.
  if (opts_.cacheTemplateSpectra) {
    std::vector<std::size_t> indices;
    indices.reserve(candidates.size());
    for (double theta : candidates)
      indices.push_back(static_cast<std::size_t>(clamp(
          std::lround(theta), 0.0,
          static_cast<double>(table_.byDegree.size() - 1))));
    prefillTemplateSpectra(indices, n);
  }

  // Score every candidate independently across the pool, then argmin in
  // candidate order (deterministic for any thread count).
  std::vector<double> scores(candidates.size());
  common::parallelFor(
      0, candidates.size(),
      [&](std::size_t c) {
        const double theta = candidates[c];
        const auto idx = static_cast<std::size_t>(clamp(
            std::lround(theta), 0.0,
            static_cast<double>(table_.byDegree.size() - 1)));
        // Template spectra: either from the per-estimator cache (batched
        // serving; one rfft pair per angle per batch) or computed fresh
        // (one-shot estimate). Same inputs, bitwise-identical spectra.
        std::shared_ptr<const TemplateSpectra> cached;
        std::vector<dsp::Complex> freshL, freshR;
        if (opts_.cacheTemplateSpectra) {
          cached = cachedTemplateSpectra(idx, n);
        } else {
          const auto& tmpl = table_.byDegree[idx];
          std::vector<double> padded(n, 0.0);
          std::copy(tmpl.left.begin(), tmpl.left.end(), padded.begin());
          freshL = plan->rfft(padded);
          std::fill(padded.begin(), padded.end(), 0.0);
          std::copy(tmpl.right.begin(), tmpl.right.end(), padded.begin());
          freshR = plan->rfft(padded);
        }
        const auto& hl = cached ? cached->left : freshL;
        const auto& hr = cached ? cached->right : freshR;
        double score = 0.0;
        for (std::size_t f = 0; f < framesL.size(); ++f) {
          double num = 0.0, den = 0.0;
          for (std::size_t k = bLo; k <= bHi; ++k) {
            const double lhs = std::abs(framesL[f][k] * hr[k]);
            const double rhs = std::abs(framesR[f][k] * hl[k]);
            num += square(lhs - rhs);
            den += square(lhs) + square(rhs);
          }
          score += den > 1e-30 ? num / den : 2.0;
        }
        scores[c] = score / static_cast<double>(framesL.size());
      });

  return pickBest(candidates, scores, "aoa.unknown.margin");
}

double trainLambda(const FarFieldTable& table, const std::vector<double>& grid,
                   const std::vector<double>& trueAnglesDeg,
                   const std::vector<std::vector<double>>& leftRecordings,
                   const std::vector<std::vector<double>>& rightRecordings,
                   const std::vector<double>& source,
                   const AoaEstimatorOptions& baseOpts) {
  UNIQ_REQUIRE(!grid.empty(), "empty lambda grid");
  UNIQ_REQUIRE(trueAnglesDeg.size() == leftRecordings.size() &&
                   trueAnglesDeg.size() == rightRecordings.size(),
               "mismatched training set sizes");
  double bestLambda = grid.front();
  double bestErr = std::numeric_limits<double>::infinity();
  for (double lambda : grid) {
    AoaEstimatorOptions opts = baseOpts;
    opts.lambdaPerSecond = lambda;
    const AoaEstimator est(table, opts);
    double err = 0.0;
    for (std::size_t i = 0; i < trueAnglesDeg.size(); ++i) {
      const auto result =
          est.estimateKnown(leftRecordings[i], rightRecordings[i], source);
      err += angularDistanceDeg(result.angleDeg, trueAnglesDeg[i]);
    }
    err /= static_cast<double>(trueAnglesDeg.size());
    if (err < bestErr) {
      bestErr = err;
      bestLambda = lambda;
    }
  }
  return bestLambda;
}

}  // namespace uniq::core
