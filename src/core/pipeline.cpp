#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "geometry/diffraction.h"
#include "geometry/head_boundary.h"
#include "geometry/polar.h"
#include "head/hrtf_database.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::core {

namespace {

/// Angular span (deg) between consecutive usable stops beyond which the
/// near-field interpolation is flagged as spanning a coverage gap.
constexpr double kGapWarnDeg = 25.0;

/// RMS error (microseconds) between each usable stop's measured interaural
/// first-tap delay and the delay the fused diffraction model predicts at
/// that stop's fused position — the per-angle tap-alignment residual the
/// near-field stage then corrects for. Large values mean the head estimate
/// and the measured taps disagree (bad gesture, low SNR, wrong geometry).
double tapAlignmentRmsUs(const std::vector<FusedStop>& stops,
                         const std::vector<BinauralChannel>& channels,
                         const head::HeadParameters& headParams) {
  const geo::HeadBoundary boundary(headParams.a, headParams.b, headParams.c,
                                   kFusionBoundaryResolution);
  double sumSq = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const auto& stop = stops[i];
    const auto& ch = channels[i];
    if (!stop.localized || !ch.firstTapLeftSec || !ch.firstTapRightSec)
      continue;
    const double measuredSec = *ch.firstTapLeftSec - *ch.firstTapRightSec;
    const geo::Vec2 p = geo::pointFromPolarDeg(stop.angleDeg, stop.radiusM);
    const auto pathL = geo::nearFieldPath(boundary, p, geo::Ear::kLeft);
    const auto pathR = geo::nearFieldPath(boundary, p, geo::Ear::kRight);
    const double modelSec = (pathL.length - pathR.length) / kSpeedOfSound;
    sumSq += square((measuredSec - modelSec) * 1e6);
    ++n;
  }
  return n > 0 ? std::sqrt(sumSq / static_cast<double>(n)) : 0.0;
}

PipelineStatus statusFromDiagnostics(
    const std::vector<obs::Diagnostic>& diagnostics) {
  PipelineStatus status = PipelineStatus::kOk;
  for (const auto& d : diagnostics) {
    if (d.severity == obs::Severity::kError) return PipelineStatus::kFailed;
    if (d.severity == obs::Severity::kWarning)
      status = PipelineStatus::kDegraded;
  }
  return status;
}

void publish(obs::RunReport* report,
             const std::vector<obs::Diagnostic>& diagnostics,
             PipelineStatus status) {
  if (!report) return;
  report->diagnostics.insert(report->diagnostics.end(), diagnostics.begin(),
                             diagnostics.end());
  report->status = pipelineStatusName(status);
}

/// Stage-boundary abort poll shared by run() and runFromChannels: when the
/// token is due, records the abort (counter + diagnostic naming `boundary`)
/// and returns true so the caller can hand back the fallback table with
/// aborted = true.
bool abortBoundary(const core::RunAbortToken* abort, const char* boundary,
                   std::vector<obs::Diagnostic>& diagnostics) {
  if (!abort || !abort->due()) return false;
  static obs::Counter& aborts = obs::registry().counter("pipeline.aborts");
  aborts.inc();
  std::ostringstream os;
  os << "run aborted (" << (abort->cancelRequested() ? "cancelled"
                                                     : "deadline exceeded")
     << ") before stage " << boundary;
  diagnostics.push_back(obs::Diagnostic{
      "pipeline", obs::Severity::kError, os.str(), {}});
  return true;
}

}  // namespace

const char* pipelineStatusName(PipelineStatus status) {
  switch (status) {
    case PipelineStatus::kOk:
      return "ok";
    case PipelineStatus::kDegraded:
      return "degraded";
    case PipelineStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

CalibrationPipeline::CalibrationPipeline(Options opts)
    : opts_(std::move(opts)) {}

std::vector<BinauralChannel> CalibrationPipeline::extractChannels(
    const sim::CalibrationCapture& capture) const {
  UNIQ_SPAN("pipeline.extract_channels");
  UNIQ_REQUIRE(!capture.stops.empty(), "capture has no stops");
  const ChannelExtractor extractor(capture.hardwareResponseEstimate,
                                   capture.sampleRate, opts_.extractor);
  // Stops are independent: fan the deconvolution batch out across the pool.
  // Each stop writes its own slot, so the result matches the serial order.
  std::vector<BinauralChannel> channels(capture.stops.size());
  common::parallelFor(
      0, capture.stops.size(),
      [&](std::size_t i) {
        channels[i] = extractor.extract(capture.stops[i].recording.left,
                                        capture.stops[i].recording.right,
                                        capture.sourceSignal);
      });
  return channels;
}

std::vector<FusionMeasurement> CalibrationPipeline::toFusionMeasurements(
    const sim::CalibrationCapture& capture,
    const std::vector<BinauralChannel>& channels) {
  UNIQ_REQUIRE(capture.stops.size() == channels.size(),
               "stop/channel count mismatch");
  std::vector<FusionMeasurement> measurements;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const auto& ch = channels[i];
    if (!ch.firstTapLeftSec || !ch.firstTapRightSec) continue;
    FusionMeasurement m;
    m.imuAngleDeg = capture.stops[i].imuAngleDeg;
    m.delayLeftSec = *ch.firstTapLeftSec;
    m.delayRightSec = *ch.firstTapRightSec;
    m.sourceIndex = i;
    measurements.push_back(m);
  }
  return measurements;
}

PersonalHrtf CalibrationPipeline::run(const sim::CalibrationCapture& capture,
                                      obs::RunReport* report,
                                      const RunAbortToken* abort) const {
  UNIQ_SPAN("pipeline.run");
  UNIQ_REQUIRE(!capture.stops.empty(), "capture has no stops");

  std::vector<obs::Diagnostic> diagnostics;
  if (abortBoundary(abort, "extract", diagnostics)) {
    auto out = populationFallback(capture, std::move(diagnostics), report);
    out.aborted = true;
    return out;
  }

  try {
    obs::StageTimer extractTimer(report, "extract");
    const auto channels = extractChannels(capture);
    extractTimer.stop();
    return runFromChannels(capture, channels, report, abort);
  } catch (const Error& e) {
    diagnostics.push_back(obs::Diagnostic{
        "pipeline", obs::Severity::kError,
        std::string("stage failed: ") + e.what(), {}});
    return populationFallback(capture, std::move(diagnostics), report);
  }
}

PersonalHrtf CalibrationPipeline::runFromChannels(
    const sim::CalibrationCapture& capture,
    const std::vector<BinauralChannel>& channels, obs::RunReport* report,
    const RunAbortToken* abort) const {
  UNIQ_SPAN("pipeline.run_from_channels");
  UNIQ_REQUIRE(!capture.stops.empty(), "capture has no stops");

  std::vector<obs::Diagnostic> diagnostics;
  const auto diagnose = [&](const char* stage, obs::Severity severity,
                            std::string message,
                            std::vector<std::size_t> stops =
                                std::vector<std::size_t>{}) {
    diagnostics.push_back(obs::Diagnostic{stage, severity, std::move(message),
                                          std::move(stops)});
  };

  // Stage-boundary abort poll: when the token fires, stop doing work and
  // hand back the fallback table with aborted = true. The serving layer
  // turns that into a cancelled/expired job; callers without a token never
  // take this path.
  const auto abortedHere = [&](const char* boundary) -> bool {
    return abortBoundary(abort, boundary, diagnostics);
  };
  const auto abortResult = [&]() {
    auto out = populationFallback(capture, std::move(diagnostics), report);
    out.aborted = true;
    return out;
  };

  try {
    auto measurements = toFusionMeasurements(capture, channels);
    const std::size_t tapsDetected = measurements.size();

    // Quality gate: stops whose capture evidence says "don't trust me" are
    // excluded from fusion rather than allowed to poison the head estimate.
    std::vector<std::size_t> noTap, clippedStops, lowSnrStops;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      const auto& q = channels[i].quality;
      if (!q.tapsDetected) noTap.push_back(i);
      if (q.clipped)
        clippedStops.push_back(i);
      else if (q.lowSnr)
        lowSnrStops.push_back(i);
    }
    measurements.erase(
        std::remove_if(measurements.begin(), measurements.end(),
                       [&](const FusionMeasurement& m) {
                         return channels[m.sourceIndex].quality.gated();
                       }),
        measurements.end());

    if (report) {
      // Values land on the "extract" stage the caller recorded (run()'s
      // StageTimer, or the streaming session's per-stop total).
      auto& stage = report->stage("extract");
      stage.set("stops", static_cast<double>(capture.stops.size()));
      stage.set("tapsDetected", static_cast<double>(tapsDetected));
      stage.set("gatedStops",
                static_cast<double>(tapsDetected - measurements.size()));
    }

    if (!noTap.empty()) {
      // A couple of undetectable stops is normal in the wild; losing more
      // than 10% of the sweep means something is genuinely wrong.
      const auto severity = noTap.size() * 10 > capture.stops.size()
                                ? obs::Severity::kWarning
                                : obs::Severity::kInfo;
      std::ostringstream os;
      os << noTap.size() << " stop(s) had no detectable first taps; "
         << "excluded from fusion";
      diagnose("extract", severity, os.str(), noTap);
    }
    if (!clippedStops.empty()) {
      std::ostringstream os;
      os << clippedStops.size()
         << " stop(s) show audio clipping; excluded from fusion";
      diagnose("extract", obs::Severity::kWarning, os.str(), clippedStops);
    }
    if (!lowSnrStops.empty()) {
      std::ostringstream os;
      os << lowSnrStops.size()
         << " stop(s) have low tap SNR; excluded from fusion";
      diagnose("extract", obs::Severity::kWarning, os.str(), lowSnrStops);
    }

    const std::size_t minUsable =
        std::max<std::size_t>(opts_.minUsableStops, 4);
    if (measurements.size() < minUsable) {
      std::ostringstream os;
      os << "only " << measurements.size()
         << " usable stop(s) after quality gating (need >= " << minUsable
         << ") — cannot personalize";
      diagnose("fusion", obs::Severity::kError, os.str());
      return populationFallback(capture, std::move(diagnostics), report);
    }

    if (abortedHere("fusion")) return abortResult();

    SensorFusionOptions fusionOpts = opts_.fusion;
    fusionOpts.minMeasurements =
        std::max(std::size_t{4}, std::min(fusionOpts.minMeasurements,
                                          opts_.minUsableStops));

    obs::StageTimer fusionTimer(report, "fusion");
    const SensorFusion fusion(fusionOpts);
    auto fusionResult = fusion.solveRobust(measurements);
    if (auto* stage = fusionTimer.stage()) {
      stage->set("iterations", static_cast<double>(fusionResult.iterations));
      stage->set("restarts", static_cast<double>(fusionResult.restartsUsed));
      stage->set("converged", fusionResult.converged ? 1.0 : 0.0);
      stage->set("localized",
                 static_cast<double>(fusionResult.localizedCount));
      stage->set("objectiveDeg2", fusionResult.finalObjectiveDeg2);
      stage->set("residualRmsDeg",
                 std::sqrt(fusionResult.meanSquaredResidualDeg2));
      stage->set("rejected",
                 static_cast<double>(
                     fusionResult.rejectedSourceIndices.size()));
      stage->set("widened", fusionResult.widened ? 1.0 : 0.0);
      stage->set("rejectMarginDeg", fusionResult.rejectMarginDeg);
    }
    fusionTimer.stop();

    if (!fusionResult.usable) {
      diagnose("fusion", obs::Severity::kError,
               "sensor fusion could not produce a usable solve");
      return populationFallback(capture, std::move(diagnostics), report);
    }
    if (!fusionResult.rejectedSourceIndices.empty()) {
      // Trimming a stop or two is a robust estimator doing its job (clean
      // captures shed the occasional IMU-jitter outlier); shedding more
      // than 10% of the sweep means the capture itself is degraded.
      const auto severity =
          fusionResult.rejectedSourceIndices.size() * 10 >
                  measurements.size()
              ? obs::Severity::kWarning
              : obs::Severity::kInfo;
      std::ostringstream os;
      os << "rejected " << fusionResult.rejectedSourceIndices.size()
         << " outlier stop(s) (IMU-vs-acoustic disagreement) in "
         << fusionResult.rejectRounds << " round(s)";
      diagnose("fusion", severity, os.str(),
               fusionResult.rejectedSourceIndices);
    }
    if (!fusionResult.converged) {
      diagnose("fusion", obs::Severity::kWarning,
               fusionResult.widened
                   ? "optimizer did not converge even with widened restarts"
                   : "optimizer did not converge");
    } else if (fusionResult.widened) {
      diagnose("fusion", obs::Severity::kInfo,
               "converged via widened-restart fallback");
    }

    // Re-expand fused stops to the full capture stop list by source index.
    // Gated and rejected stops come back un-localized so the near-field
    // builder skips them but the report can still account for every stop.
    std::vector<FusedStop> fullStops(capture.stops.size());
    for (std::size_t i = 0; i < fullStops.size(); ++i) {
      fullStops[i].localized = false;
      fullStops[i].imuAngleDeg = capture.stops[i].imuAngleDeg;
      fullStops[i].angleDeg = capture.stops[i].imuAngleDeg;
      fullStops[i].sourceIndex = i;
    }
    for (const auto& s : fusionResult.stops)
      if (s.sourceIndex < fullStops.size()) fullStops[s.sourceIndex] = s;

    std::size_t usableForNear = 0;
    for (std::size_t i = 0; i < fullStops.size(); ++i) {
      if (fullStops[i].localized && channels[i].firstTapLeftSec &&
          channels[i].firstTapRightSec)
        ++usableForNear;
    }
    if (usableForNear < 4) {
      std::ostringstream os;
      os << "only " << usableForNear
         << " localized stop(s) with taps (need >= 4 for interpolation)";
      diagnose("nearfield", obs::Severity::kError, os.str());
      return populationFallback(capture, std::move(diagnostics), report);
    }

    if (abortedHere("nearfield")) return abortResult();

    obs::StageTimer nearTimer(report, "nearfield");
    const NearFieldHrtfBuilder nearBuilder(opts_.nearField);
    auto nearTable =
        nearBuilder.build(fullStops, channels, fusionResult.headParams);
    if (auto* stage = nearTimer.stage()) {
      stage->set("usableStops", static_cast<double>(usableForNear));
      stage->set("medianRadiusM", nearTable.medianRadiusM);
      stage->set("tapAlignRmsUs",
                 tapAlignmentRmsUs(fullStops, channels,
                                   fusionResult.headParams));
    }
    nearTimer.stop();

    // Coverage audit: interpolation happily spans any gap, but the degrees
    // inside a wide one are long-range extrapolations worth flagging.
    if (!nearTable.sourceAnglesDeg.empty()) {
      double worstGap = 0.0, gapLo = 0.0, gapHi = 0.0;
      const auto& angles = nearTable.sourceAnglesDeg;
      const auto consider = [&](double lo, double hi) {
        if (hi - lo > worstGap) {
          worstGap = hi - lo;
          gapLo = lo;
          gapHi = hi;
        }
      };
      consider(0.0, angles.front());
      for (std::size_t i = 1; i < angles.size(); ++i)
        consider(angles[i - 1], angles[i]);
      consider(angles.back(), 180.0);
      if (worstGap > kGapWarnDeg) {
        std::ostringstream os;
        os << "near-field interpolation spans a "
           << static_cast<int>(std::lround(worstGap))
           << " deg coverage gap (" << static_cast<int>(std::lround(gapLo))
           << ".." << static_cast<int>(std::lround(gapHi)) << " deg)";
        diagnose("nearfield", obs::Severity::kWarning, os.str());
      }
    }

    if (abortedHere("nearfar")) return abortResult();

    obs::StageTimer farTimer(report, "nearfar");
    const NearFarConverter converter(opts_.nearFar);
    auto farTable = converter.convert(nearTable);
    if (auto* stage = farTimer.stage()) {
      stage->set("entries", static_cast<double>(farTable.byDegree.size()));
    }
    farTimer.stop();

    obs::StageTimer gestureTimer(report, "gesture");
    const GestureValidator validator;
    auto gestureReport = validator.validate(fusionResult);
    if (auto* stage = gestureTimer.stage()) {
      stage->set("ok", gestureReport.ok ? 1.0 : 0.0);
      stage->set("issues", static_cast<double>(gestureReport.issues.size()));
    }
    gestureTimer.stop();
    for (const auto& issue : gestureReport.issues)
      diagnose("gesture", obs::Severity::kWarning, issue);

    PersonalHrtf out{HrtfTable(std::move(nearTable), std::move(farTable)),
                     fusionResult.headParams, std::move(fusionResult),
                     std::move(gestureReport), PipelineStatus::kOk,
                     {}, false};
    out.diagnostics = std::move(diagnostics);
    out.status = statusFromDiagnostics(out.diagnostics);
    publish(report, out.diagnostics, out.status);
    return out;
  } catch (const Error& e) {
    // Belt and braces: a stage that still throws on degenerate data turns
    // into a failed-but-alive run, not an escaped exception.
    diagnose("pipeline", obs::Severity::kError,
             std::string("stage failed: ") + e.what());
    return populationFallback(capture, std::move(diagnostics), report);
  }
}

PersonalHrtf CalibrationPipeline::populationFallback(
    const sim::CalibrationCapture& capture,
    std::vector<obs::Diagnostic> diagnostics, obs::RunReport* report) const {
  UNIQ_SPAN("pipeline.fallback");
  static obs::Counter& fallbacks =
      obs::registry().counter("pipeline.fallbacks");
  fallbacks.inc();

  // Population-average template at the capture's sample rate: the listener
  // keeps a working (generic) spatializer while the app asks for a redo.
  head::HrtfDatabaseOptions dbOpts;
  if (capture.sampleRate > 8000.0) dbOpts.sampleRate = capture.sampleRate;
  const head::HrtfDatabase db(head::globalTemplateSubject(), dbOpts);
  auto nearTable = nearTableFromDatabase(db, dbOpts.referenceDistance);
  auto farTable = farTableFromDatabase(db);

  SensorFusionResult fusion;
  fusion.usable = false;
  fusion.converged = false;
  fusion.headParams = db.subject().headParams;
  GestureReport gesture;
  gesture.ok = false;
  gesture.issues.push_back(
      "calibration failed — population-average HRTF in use; redo the sweep");

  PersonalHrtf out{HrtfTable(std::move(nearTable), std::move(farTable)),
                   fusion.headParams, std::move(fusion), std::move(gesture),
                   PipelineStatus::kFailed, {}, false};
  out.status = PipelineStatus::kFailed;
  out.diagnostics = std::move(diagnostics);
  publish(report, out.diagnostics, out.status);
  return out;
}

}  // namespace uniq::core
