#include "stream/streaming_session.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace uniq::stream {

namespace {

/// Human name for the arc containing `angleDeg` (the sweep conventions:
/// 0 = nose, 90 = left ear, 180 = back of head).
const char* arcName(double angleDeg) {
  if (angleDeg < 60.0) return "front";
  if (angleDeg < 120.0) return "side";
  return "rear";
}

}  // namespace

StreamingSession::StreamingSession(CaptureHeader header,
                                   core::CalibrationPipelineOptions opts)
    : header_(std::move(header)),
      // Inherit the constructing thread's context (a service job) when one
      // is active; a directly-constructed session gets its own.
      traceId_(obs::currentTraceId() != 0 ? obs::currentTraceId()
                                          : obs::newTraceId()),
      extractor_(header_.hardwareResponseEstimate, header_.sampleRate,
                 opts.extractor),
      // Incremental solves reuse the batch fusion configuration so the
      // live estimate tracks what the final solve will see.
      fusion_(opts.fusion),
      pipeline_(opts) {
  coveredBins_.assign(
      static_cast<std::size_t>(std::ceil(180.0 / kCoverageBinDeg)), false);
  snapshot_.headEstimate = head::HeadParameters::average();
  snapshot_.worstGapDeg = 180.0;
  snapshot_.worstGapHiDeg = 180.0;
  snapshot_.hint = "sweep just started — cover the full arc";
}

bool StreamingSession::push(sim::CalibrationStop stop,
                            std::optional<std::size_t> seq) {
  // The session's context, even when it was freshly allocated above after
  // the caller's own context was captured.
  obs::TraceContextScope scope(traceId_);
  std::size_t s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finalized_ || cancelled_) return false;
    s = seq ? *seq : nextArrivalSeq_;
    nextArrivalSeq_ = std::max(nextArrivalSeq_, s + 1);
    if (firstPushMs_ == 0.0) firstPushMs_ = obs::steadyMs();
    ++snapshot_.stopsIngested;
  }
  static obs::Counter& ingested =
      obs::registry().counter("stream.stops.ingested");
  ingested.inc();

  core::BinauralChannel channel;
  {
    UNIQ_SPAN("stream.extract.stop");
    const double t0 = obs::steadyMs();
    channel = extractor_.extract(stop.recording.left, stop.recording.right,
                                 header_.sourceSignal);
    extractWallMs_ += obs::steadyMs() - t0;
  }
  absorbStop(s, std::move(stop), std::move(channel));
  return true;
}

CoverageSnapshot StreamingSession::coverage() const {
  runPendingSolves();
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

bool StreamingSession::converged() const {
  runPendingSolves();
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_.converged;
}

void StreamingSession::cancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  cancelled_ = true;
  pendingSolves_.clear();
}

void StreamingSession::absorbStop(std::size_t seq, sim::CalibrationStop stop,
                                  core::BinauralChannel channel) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto& q = channel.quality;
  const bool usable =
      channel.firstTapLeftSec && channel.firstTapRightSec && !q.gated();
  ++snapshot_.stopsExtracted;
  if (usable) {
    core::FusionMeasurement m;
    m.imuAngleDeg = stop.imuAngleDeg;
    m.delayLeftSec = *channel.firstTapLeftSec;
    m.delayRightSec = *channel.firstTapRightSec;
    m.sourceIndex = seq;
    // Keep measurements seq-sorted so the incremental solve is a
    // deterministic function of the *set* of stops, not arrival order.
    measurements_.insert(
        std::upper_bound(measurements_.begin(), measurements_.end(), m,
                         [](const core::FusionMeasurement& a,
                            const core::FusionMeasurement& b) {
                           return a.sourceIndex < b.sourceIndex;
                         }),
        m);
    ++snapshot_.stopsUsable;
  }
  updateCoverage(stop.imuAngleDeg, usable);
  stopsBySeq_.insert_or_assign(
      seq, FoldedStop{std::move(stop), std::move(channel)});

  // The solve this push calls for runs when someone reads the session.
  if (usable && measurements_.size() >= 3 && !cancelled_)
    pendingSolves_.push_back(
        PendingSolve{measurements_, snapshot_.coveredFraction});
}

void StreamingSession::runPendingSolves() const {
  std::lock_guard<std::mutex> solveLock(solveMutex_);
  obs::TraceContextScope scope(traceId_);
  static obs::Counter& incRestarts =
      obs::registry().counter("stream.solve.incremental_restarts");
  static obs::Gauge& deltaGauge =
      obs::registry().gauge("stream.solve.last_delta_m");
  for (;;) {
    PendingSolve next;
    std::optional<head::HeadParameters> seed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pendingSolves_.empty()) return;
      next = std::move(pendingSolves_.front());
      pendingSolves_.pop_front();
      seed = lastEstimate_;
    }

    // The warm-started solve runs outside mutex_, so other coverage()
    // callers and cancel() never wait on an optimizer iteration.
    core::SensorFusionResult result;
    {
      UNIQ_SPAN("stream.fuse.solve");
      incRestarts.inc();
      result = fusion_.solveIncremental(next.measurements, seed);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    const auto& e = result.headParams;
    const double delta =
        lastEstimate_
            ? std::max({std::fabs(e.a - lastEstimate_->a),
                        std::fabs(e.b - lastEstimate_->b),
                        std::fabs(e.c - lastEstimate_->c)})
            : 1.0;  // first solve never counts toward the stable streak
    deltaGauge.set(delta);
    lastEstimate_ = e;
    snapshot_.headEstimate = e;
    snapshot_.objectiveDeg2 = result.finalObjectiveDeg2;
    ++snapshot_.incrementalSolves;
    stableStreak_ = delta < kConvergeDeltaM ? stableStreak_ + 1 : 0;
    if (!snapshot_.converged &&
        next.measurements.size() >= kMinStopsBeforeConverge &&
        next.coveredFraction >= kMinCoverageForConverge &&
        stableStreak_ >= kConvergeStreak) {
      snapshot_.converged = true;
      timeToConvergeMs_ = obs::steadyMs() - firstPushMs_;
      snapshot_.hint = "table converged — you can stop sweeping";
      obs::registry().gauge("stream.time_to_converge_ms").set(
          timeToConvergeMs_);
      obs::registry().counter("stream.sessions.converged").inc();
    }
  }
}

void StreamingSession::updateCoverage(double angleDeg, bool usable) {
  UNIQ_SPAN("stream.coverage.update");
  const double binDeg =
      180.0 / static_cast<double>(coveredBins_.size());
  if (usable) {
    const double clamped = std::clamp(angleDeg, 0.0, 180.0);
    auto bin = static_cast<std::size_t>(clamped / binDeg);
    if (bin >= coveredBins_.size()) bin = coveredBins_.size() - 1;
    // Latched: a bin once covered stays covered, which is what makes the
    // covered fraction monotone over a session.
    coveredBins_[bin] = true;
  }

  std::size_t covered = 0;
  std::size_t worstRun = 0, worstStart = 0, run = 0, runStart = 0;
  for (std::size_t i = 0; i < coveredBins_.size(); ++i) {
    if (coveredBins_[i]) {
      ++covered;
      run = 0;
    } else {
      if (run == 0) runStart = i;
      ++run;
      if (run > worstRun) {
        worstRun = run;
        worstStart = runStart;
      }
    }
  }
  snapshot_.coveredFraction =
      static_cast<double>(covered) / static_cast<double>(coveredBins_.size());
  snapshot_.worstGapDeg = static_cast<double>(worstRun) * binDeg;
  snapshot_.worstGapLoDeg = static_cast<double>(worstStart) * binDeg;
  snapshot_.worstGapHiDeg =
      static_cast<double>(worstStart + worstRun) * binDeg;

  if (snapshot_.converged) return;  // the converged hint wins
  if (worstRun == 0) {
    snapshot_.hint = "full arc covered — hold until the table converges";
  } else if (snapshot_.worstGapDeg > 2.0 * binDeg) {
    std::ostringstream os;
    const double mid =
        0.5 * (snapshot_.worstGapLoDeg + snapshot_.worstGapHiDeg);
    os << arcName(mid) << " arc thin — keep sweeping ("
       << static_cast<int>(std::lround(snapshot_.worstGapLoDeg)) << ".."
       << static_cast<int>(std::lround(snapshot_.worstGapHiDeg))
       << " deg uncovered)";
    snapshot_.hint = os.str();
  } else {
    snapshot_.hint = "coverage looks good — keep sweeping until converged";
  }
}

StreamingResult StreamingSession::finalize(obs::RunReport* report) {
  obs::TraceContextScope scope(traceId_);
  UNIQ_SPAN("stream.finalize");

  sim::CalibrationCapture capture;
  capture.sampleRate = header_.sampleRate;
  capture.sourceSignal = header_.sourceSignal;
  capture.hardwareResponseEstimate = header_.hardwareResponseEstimate;
  std::vector<core::BinauralChannel> channels;
  bool wasCancelled = false;
  bool convergedEarly = false;
  std::size_t stopsIngested = 0, stopsUsable = 0, incrementalSolves = 0;
  double timeToConvergeMs = 0.0;
  {
    // A reader's solve already running finishes first; the queued ones are
    // dropped, so the live fields below count the solves that ran.
    std::lock_guard<std::mutex> solveLock(solveMutex_);
    std::lock_guard<std::mutex> lock(mutex_);
    pendingSolves_.clear();
    convergedEarly = snapshot_.converged;
    stopsIngested = snapshot_.stopsIngested;
    stopsUsable = snapshot_.stopsUsable;
    incrementalSolves = snapshot_.incrementalSolves;
    timeToConvergeMs = timeToConvergeMs_;
    wasCancelled = cancelled_;
    finalized_ = true;
    // Re-order by sequence number (std::map iterates in key order), so the
    // assembled capture is independent of arrival order.
    capture.stops.reserve(stopsBySeq_.size());
    channels.reserve(stopsBySeq_.size());
    for (auto& [seq, folded] : stopsBySeq_) {
      capture.stops.push_back(std::move(folded.stop));
      channels.push_back(std::move(folded.channel));
    }
    stopsBySeq_.clear();
  }

  static obs::Counter& finalizedCounter =
      obs::registry().counter("stream.sessions.finalized");
  finalizedCounter.inc();

  const auto wrap = [&](core::PersonalHrtf personal) {
    return StreamingResult{std::move(personal), convergedEarly, stopsIngested,
                           stopsUsable,         incrementalSolves,
                           timeToConvergeMs};
  };

  // Extraction ran stop by stop inside push(); record its total as the one
  // "extract" stage of this run.
  if (!capture.stops.empty())
    obs::recordStage(report, "extract", extractWallMs_);

  if (wasCancelled || capture.stops.empty()) {
    std::vector<obs::Diagnostic> diagnostics;
    diagnostics.push_back(obs::Diagnostic{
        "stream", obs::Severity::kError,
        wasCancelled ? "streaming session cancelled before finalize"
                     : "streaming session received no stops",
        {}});
    auto personal = pipeline_.populationFallback(
        capture, std::move(diagnostics), report);
    personal.aborted = wasCancelled;
    return wrap(std::move(personal));
  }

  return wrap(pipeline_.runFromChannels(capture, channels, report));
}

}  // namespace uniq::stream
