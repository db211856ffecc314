#include "core/sensor_fusion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "dsp/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/levenberg_marquardt.h"

namespace uniq::core {

namespace {

/// Levenberg-Marquardt iterations per start before it gives up.
constexpr std::size_t kMaxIterations = 120;

using Box = head::HeadParameters;
constexpr double kLo[3] = {Box::kMinA, Box::kMinB, Box::kMinC};
constexpr double kHi[3] = {Box::kMaxA, Box::kMaxB, Box::kMaxC};

/// Logistic squashing of one unconstrained coordinate into [lo, hi].
double squash(double x, double lo, double hi) {
  return lo + (hi - lo) / (1.0 + std::exp(-x));
}

double unsquash(double v, double lo, double hi) {
  const double u = clamp((v - lo) / (hi - lo), 1e-6, 1.0 - 1e-6);
  return std::log(u / (1.0 - u));
}

/// dE/dx of the squash at the axis value it produced:
/// (hi - lo) s (1 - s) with s = (E - lo) / (hi - lo).
double squashSlope(double v, double lo, double hi) {
  return (v - lo) * (hi - v) / (hi - lo);
}

double medianOf(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

head::HeadParameters headFromSquashed(const std::vector<double>& x) {
  return {squash(x[0], kLo[0], kHi[0]), squash(x[1], kLo[1], kHi[1]),
          squash(x[2], kLo[2], kHi[2])};
}

std::vector<double> squashedFromHead(const head::HeadParameters& head) {
  return {unsquash(head.a, kLo[0], kHi[0]), unsquash(head.b, kLo[1], kHi[1]),
          unsquash(head.c, kLo[2], kHi[2])};
}

SensorFusion::SensorFusion(Options opts) : opts_(opts) {}

std::shared_ptr<const SensorFusion::CachedGeometry> SensorFusion::geometryFor(
    const head::HeadParameters& candidate) const {
  // Keyed on the exact parameter bits: the fuse pass and warm starts
  // revisit points verbatim, so bit equality is the right match and never
  // returns stale geometry for a genuinely new candidate.
  constexpr std::size_t kMaxCachedGeometries = 8;
  {
    std::lock_guard<std::mutex> lock(geometryMutex_);
    for (auto it = geometryLru_.begin(); it != geometryLru_.end(); ++it) {
      if (it->first.a == candidate.a && it->first.b == candidate.b &&
          it->first.c == candidate.c) {
        geometryLru_.splice(geometryLru_.begin(), geometryLru_, it);
        return geometryLru_.front().second;
      }
    }
  }
  auto built = std::make_shared<const CachedGeometry>(candidate);
  std::lock_guard<std::mutex> lock(geometryMutex_);
  geometryLru_.emplace_front(candidate, built);
  if (geometryLru_.size() > kMaxCachedGeometries) geometryLru_.pop_back();
  return built;
}

std::optional<PolarFix> SensorFusion::CachedGeometry::locate(
    const FusionMeasurement& m) const {
  const auto same = [&m](const auto& entry) {
    const FusionMeasurement& k = entry.first;
    return k.delayLeftSec == m.delayLeftSec &&
           k.delayRightSec == m.delayRightSec &&
           k.imuAngleDeg == m.imuAngleDeg;
  };
  {
    std::lock_guard<std::mutex> lock(fixesMutex_);
    const auto it = std::find_if(fixes_.begin(), fixes_.end(), same);
    if (it != fixes_.end()) return it->second;
  }
  const auto fix =
      localizer.locate(m.delayLeftSec, m.delayRightSec, m.imuAngleDeg);
  std::lock_guard<std::mutex> lock(fixesMutex_);
  if (std::find_if(fixes_.begin(), fixes_.end(), same) == fixes_.end())
    fixes_.emplace_back(m, fix);
  return fix;
}

const PerturbedHeads& SensorFusion::CachedGeometry::perturbed() const {
  std::call_once(perturbedOnce_,
                 [this] { perturbed_.emplace(perturbedHeads(boundary)); });
  return *perturbed_;
}

std::vector<double> SensorFusion::residuals(
    const head::HeadParameters& candidate,
    const std::vector<FusionMeasurement>& measurements,
    optim::Matrix* jacobian) const {
  UNIQ_SPAN("dsf.objective");
  static obs::Counter& evals =
      obs::registry().counter("dsf.objective.evals");
  static obs::Counter& builds =
      obs::registry().counter("dsf.jacobian.builds");
  static obs::Counter& singularRows =
      obs::registry().counter("dsf.jacobian.singular_rows");
  evals.inc();
  const auto geometry = geometryFor(candidate);
  const Localizer& localizer = geometry->localizer;
  const std::size_t n = measurements.size();
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  const double unlocalized = std::sqrt(kUnlocalizedPenaltyDeg2) * scale;
  const double axes[3] = {candidate.a, candidate.b, candidate.c};
  double slope[3];
  for (std::size_t j = 0; j < 3; ++j)
    slope[j] = squashSlope(axes[j], kLo[j], kHi[j]);
  std::vector<double> r(n + 3);
  if (jacobian) {
    builds.inc();
    *jacobian = optim::Matrix(n + 3, 3);
  }
  // One serial pass: an evaluation is ~0.1-0.3 ms, and fanning its stops
  // out over the pool made a lone calibration no faster and streaming
  // sessions slower.
  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = measurements[i];
    const auto fix = geometry->locate(m);
    r[i] = fix ? (m.imuAngleDeg - fix->angleDeg) * scale : unlocalized;
    if (!jacobian || !fix || fix->approximate) continue;
    const auto gradient =
        localizer.angleGradient(*fix, geometry->perturbed());
    if (!gradient) {
      singularRows.inc();
      continue;
    }
    for (std::size_t j = 0; j < 3; ++j)
      jacobian->at(i, j) = -(*gradient)[j] * slope[j] * scale;
  }
  const auto avg = head::HeadParameters::average();
  const double avgAxes[3] = {avg.a, avg.b, avg.c};
  const double prior = std::sqrt(opts_.priorWeight);
  for (std::size_t j = 0; j < 3; ++j) {
    r[n + j] = prior * (axes[j] - avgAxes[j]);
    if (jacobian) jacobian->at(n + j, j) = prior * slope[j];
  }
  return r;
}

double SensorFusion::objective(
    const head::HeadParameters& candidate,
    const std::vector<FusionMeasurement>& measurements) const {
  double cost = 0.0;
  for (const double v : residuals(candidate, measurements)) cost += v * v;
  return cost;
}

SensorFusionResult SensorFusion::solve(
    const std::vector<FusionMeasurement>& measurements) const {
  UNIQ_SPAN("dsf.solve");
  UNIQ_REQUIRE(measurements.size() >= 6,
               "sensor fusion needs at least 6 usable stops");
  return solveWith(measurements, kFusionRestarts);
}

SensorFusionResult SensorFusion::solveIncremental(
    const std::vector<FusionMeasurement>& measurements,
    const std::optional<head::HeadParameters>& seed) const {
  UNIQ_SPAN("dsf.solve_incremental");
  if (measurements.empty()) {
    SensorFusionResult result;
    result.usable = false;
    result.converged = false;
    return result;
  }
  return solveWith(measurements, 1, seed ? &*seed : nullptr);
}

SensorFusionResult SensorFusion::solveWith(
    const std::vector<FusionMeasurement>& measurements,
    std::size_t restarts, const head::HeadParameters* seedStart) const {
  std::size_t evaluations = 0;
  const auto linearize = [&](const std::vector<double>& x) {
    ++evaluations;
    optim::Linearization lin;
    lin.residuals =
        residuals(headFromSquashed(x), measurements, &lin.jacobian);
    return lin;
  };

  // Which kernel tier this solve ran on, and how many FFT transforms each
  // objective evaluation cost — both end up in the RunReport metrics
  // snapshot. (The DSF objective is geometry-bound; a nonzero per-eval FFT
  // count flags an unexpected code path.)
  static obs::Counter& evalCounter =
      obs::registry().counter("dsf.objective.evals");
  static obs::Counter& transforms =
      obs::registry().counter("fft.transforms");
  static obs::Counter& fftCounter =
      obs::registry().counter("dsf.solve.fft_transforms");
  static obs::Gauge& fftPerEval =
      obs::registry().gauge("dsf.solve.fft_per_eval");
  obs::registry()
      .counter(std::string("dsf.solve.kernel.") +
               dsp::kernels::isaName(dsp::kernels::activeIsa()))
      .inc();
  const std::uint64_t fftBefore = transforms.value();
  const std::uint64_t evalsBefore = evalCounter.value();

  SensorFusionResult result;
  static obs::Histogram& iterHist = obs::registry().histogram(
      "dsf.restart.iterations", obs::HistogramOptions{1.0, 2.0, 10});
  optim::MinimizeResult best;
  for (std::size_t r = 0; r < restarts; ++r) {
    UNIQ_SPAN("dsf.restart");
    auto start = squashedFromHead(
        r == 0 && seedStart ? *seedStart : head::HeadParameters::average());
    // Restart 0 is the canonical average start (or the caller's warm seed);
    // later restarts probe the corners of a small cube around the average
    // (deterministic, no RNG, so the solve stays reproducible).
    if (r > 0) {
      for (std::size_t j = 0; j < start.size(); ++j)
        start[j] += 0.45 * (((r >> j) & 1) ? 1.0 : -1.0);
    }
    auto min = optim::levenbergMarquardt(linearize, start, kMaxIterations);
    iterHist.observe(static_cast<double>(min.iterations));
    result.iterations += min.iterations;
    if (r == 0 || min.fValue < best.fValue) best = std::move(min);
  }
  result.restartsUsed = restarts;
  result.evaluations = evaluations;
  result.jacobianBuilds = evaluations;
  result.headParams = headFromSquashed(best.x);
  result.converged = best.converged;
  result.finalObjectiveDeg2 = best.fValue;

  // Final pass with the optimal parameters: fuse angles per Eq. 3. The
  // winning point was evaluated a few evaluations ago, so its geometry and
  // fixes are usually cached.
  UNIQ_SPAN("dsf.fuse");
  const auto geometry = geometryFor(result.headParams);
  double residual = 0.0;
  for (const auto& m : measurements) {
    FusedStop stop;
    stop.sourceIndex = m.sourceIndex;
    stop.imuAngleDeg = m.imuAngleDeg;
    const auto fix = geometry->locate(m);
    if (fix) {
      stop.localized = true;
      stop.acousticAngleDeg = fix->angleDeg;
      stop.angleDeg = 0.5 * (fix->angleDeg + m.imuAngleDeg);
      stop.radiusM = fix->radiusM;
      residual += square(m.imuAngleDeg - fix->angleDeg);
      ++result.localizedCount;
    } else {
      stop.angleDeg = m.imuAngleDeg;
      stop.radiusM = 0.0;
    }
    result.stops.push_back(stop);
  }
  result.meanSquaredResidualDeg2 =
      result.localizedCount > 0
          ? residual / static_cast<double>(result.localizedCount)
          : kUnlocalizedPenaltyDeg2;

  const std::uint64_t fftDelta = transforms.value() - fftBefore;
  const std::uint64_t evalDelta = evalCounter.value() - evalsBefore;
  fftCounter.inc(fftDelta);
  fftPerEval.set(evalDelta > 0 ? static_cast<double>(fftDelta) /
                                     static_cast<double>(evalDelta)
                               : 0.0);
  return result;
}

SensorFusionResult SensorFusion::solveRobust(
    const std::vector<FusionMeasurement>& measurements) const {
  UNIQ_SPAN("dsf.solve_robust");
  static obs::Counter& rejectedCounter =
      obs::registry().counter("dsf.rejected_stops");
  static obs::Gauge& marginGauge =
      obs::registry().gauge("dsf.reject.margin_deg");

  SensorFusionResult result;
  if (measurements.size() < opts_.minMeasurements) {
    result.usable = false;
    result.converged = false;
    return result;
  }

  std::vector<FusionMeasurement> kept = measurements;
  result = solveWith(kept, kFusionRestarts);
  std::size_t evaluations = result.evaluations;
  std::vector<std::size_t> rejected;
  double margin = std::numeric_limits<double>::quiet_NaN();

  for (std::size_t round = 0; round < kMaxRejectRounds; ++round) {
    if (kept.size() <= opts_.minMeasurements) break;

    // Absolute IMU-vs-acoustic residual per localized stop. A corrupted
    // stop (clock drift, swapped ears that still localize, IMU glitch)
    // shows up as a gross disagreement the healthy stops never reach.
    std::vector<double> residuals;
    for (const auto& s : result.stops)
      if (s.localized)
        residuals.push_back(std::fabs(s.imuAngleDeg - s.acousticAngleDeg));
    if (residuals.size() < 3) break;

    const double med = medianOf(residuals);
    std::vector<double> deviations;
    deviations.reserve(residuals.size());
    for (double r : residuals) deviations.push_back(std::fabs(r - med));
    const double mad = medianOf(deviations);
    const double threshold =
        std::max(kRejectMadMultiplier * 1.4826 * mad, kRejectMinResidualDeg);
    margin = std::numeric_limits<double>::infinity();
    for (double r : residuals)
      margin = std::min(margin, std::fabs(r - threshold));

    // Worst offenders first, capped so the survivor count never dips below
    // the minimum the solver needs.
    std::vector<std::pair<double, std::size_t>> outliers;
    for (const auto& s : result.stops) {
      if (!s.localized) continue;
      const double r = std::fabs(s.imuAngleDeg - s.acousticAngleDeg);
      if (r > threshold) outliers.emplace_back(r, s.sourceIndex);
    }
    if (outliers.empty()) break;
    std::sort(outliers.rbegin(), outliers.rend());
    const std::size_t budget = kept.size() - opts_.minMeasurements;
    if (outliers.size() > budget) outliers.resize(budget);
    if (outliers.empty()) break;

    for (const auto& [r, src] : outliers) {
      rejected.push_back(src);
      kept.erase(std::remove_if(kept.begin(), kept.end(),
                                [src = src](const FusionMeasurement& m) {
                                  return m.sourceIndex == src;
                                }),
                 kept.end());
    }
    // Dropping a few stops moves the optimum only a little: start the
    // re-solve from the previous answer.
    const auto previous = result.headParams;
    result = solveWith(kept, kFusionRestarts, &previous);
    evaluations += result.evaluations;
    result.rejectRounds = round + 1;
  }

  // Non-convergence fallback: re-solve from widened deterministic starts
  // and keep whichever attempt scored the better objective. Degraded, not
  // dead.
  if (!result.converged) {
    const std::size_t rounds = result.rejectRounds;
    auto widenedResult = solveWith(kept, kWidenedRestarts);
    evaluations += widenedResult.evaluations;
    if (widenedResult.converged ||
        widenedResult.finalObjectiveDeg2 < result.finalObjectiveDeg2) {
      result = std::move(widenedResult);
      result.rejectRounds = rounds;
    }
    result.widened = true;
  }

  result.evaluations = evaluations;
  result.jacobianBuilds = evaluations;
  result.rejectMarginDeg = margin;
  marginGauge.set(margin);
  std::sort(rejected.begin(), rejected.end());
  if (!rejected.empty()) rejectedCounter.inc(rejected.size());
  // Surface rejected stops as unlocalized entries so downstream stages see
  // every source index exactly once.
  for (std::size_t src : rejected) {
    const auto it =
        std::find_if(measurements.begin(), measurements.end(),
                     [src](const FusionMeasurement& m) {
                       return m.sourceIndex == src;
                     });
    if (it == measurements.end()) continue;
    FusedStop stop;
    stop.sourceIndex = src;
    stop.imuAngleDeg = it->imuAngleDeg;
    stop.angleDeg = it->imuAngleDeg;
    stop.localized = false;
    result.stops.push_back(stop);
  }
  std::sort(result.stops.begin(), result.stops.end(),
            [](const FusedStop& a, const FusedStop& b) {
              return a.sourceIndex < b.sourceIndex;
            });
  result.rejectedSourceIndices = std::move(rejected);
  return result;
}

}  // namespace uniq::core
