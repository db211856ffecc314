#include "stream/streaming_session.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
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

StreamingSession::StreamingSession(CaptureHeader header, Options opts)
    : header_(std::move(header)),
      opts_(opts),
      // Inherit the constructing thread's context (a service job) when one
      // is active; a directly-constructed session gets its own.
      traceId_(obs::currentTraceId() != 0 ? obs::currentTraceId()
                                          : obs::newTraceId()),
      extractor_(header_.hardwareResponseEstimate, header_.sampleRate,
                 opts_.pipeline.extractor),
      // Incremental solves reuse the batch fusion configuration so the
      // live estimate tracks what the final solve will see.
      fusion_(opts_.pipeline.fusion),
      pipeline_(opts_.pipeline),
      ingestQueue_(opts_.queueCapacity, "ingest"),
      fusedQueue_(opts_.queueCapacity, "fused"),
      // Each node loop parks a worker on its queue; with fewer than one
      // worker per node the graph would deadlock under backpressure.
      nodes_(std::max<std::size_t>(2, opts_.workerThreads)) {
  const double binDeg =
      opts_.coverageBinDeg > 0.0 ? opts_.coverageBinDeg : 15.0;
  coveredBins_.assign(
      static_cast<std::size_t>(std::ceil(180.0 / binDeg)), false);
  snapshot_.headEstimate = head::HeadParameters::average();
  snapshot_.worstGapDeg = 180.0;
  snapshot_.worstGapHiDeg = 180.0;
  snapshot_.hint = "sweep just started — cover the full arc";
  liveNodes_ = 2;
  // Explicit scopes (rather than relying on pool propagation alone) so the
  // node loops carry the session's context even when it was freshly
  // allocated above, after the constructing thread's context was captured.
  nodes_.submit([this] {
    obs::TraceContextScope scope(traceId_);
    extractLoop();
  });
  nodes_.submit([this] {
    obs::TraceContextScope scope(traceId_);
    fuseLoop();
  });
}

StreamingSession::~StreamingSession() {
  ingestQueue_.close();
  joinNodes();
}

bool StreamingSession::push(sim::CalibrationStop stop,
                            std::optional<std::size_t> seq) {
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
  return ingestQueue_.push(IngestedStop{s, std::move(stop)});
}

CoverageSnapshot StreamingSession::coverage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

bool StreamingSession::converged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_.converged;
}

void StreamingSession::cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
  }
  // Wake any producer blocked on backpressure and let the nodes drain.
  ingestQueue_.close();
}

void StreamingSession::extractLoop() {
  IngestedStop in;
  while (ingestQueue_.pop(in)) {
    UNIQ_SPAN("stream.extract.stop");
    const double t0 = obs::steadyMs();
    auto channel =
        extractor_.extract(in.stop.recording.left, in.stop.recording.right,
                           header_.sourceSignal);
    const double elapsedMs = obs::steadyMs() - t0;
    ExtractedStop out;
    out.seq = in.seq;
    out.imuAngleDeg = in.stop.imuAngleDeg;
    out.channel = std::move(channel);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      extractWallMs_ += elapsedMs;
      stopsBySeq_.insert_or_assign(in.seq, std::move(in.stop));
    }
    fusedQueue_.push(std::move(out));
  }
  // Ingest is closed and drained: end the downstream edge too.
  fusedQueue_.close();
  nodeDone();
}

void StreamingSession::fuseLoop() {
  ExtractedStop ex;
  while (fusedQueue_.pop(ex)) absorbStop(std::move(ex));
  nodeDone();
}

void StreamingSession::absorbStop(ExtractedStop&& stop) {
  // Fold the stop into the running state under the lock...
  std::vector<core::FusionMeasurement> measurements;
  std::optional<head::HeadParameters> seed;
  bool solveNow = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& q = stop.channel.quality;
    const bool usable = stop.channel.firstTapLeftSec &&
                        stop.channel.firstTapRightSec && !q.gated();
    ++snapshot_.stopsExtracted;
    if (usable) {
      core::FusionMeasurement m;
      m.imuAngleDeg = stop.imuAngleDeg;
      m.delayLeftSec = *stop.channel.firstTapLeftSec;
      m.delayRightSec = *stop.channel.firstTapRightSec;
      m.sourceIndex = stop.seq;
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
      ++usableSinceSolve_;
    }
    updateCoverage(stop.imuAngleDeg, usable);
    channelsBySeq_.insert_or_assign(stop.seq, std::move(stop.channel));

    solveNow =
        usableSinceSolve_ >= std::max<std::size_t>(1, opts_.solveEvery) &&
        measurements_.size() >= 3 && !cancelled_;
    if (solveNow) {
      usableSinceSolve_ = 0;
      measurements = measurements_;
      seed = lastEstimate_;
    }
  }
  if (!solveNow) return;

  // ...then run the warm-started solve outside it, so coverage()/push()
  // callers never wait on an optimizer iteration.
  UNIQ_SPAN("stream.fuse.solve");
  static obs::Counter& incRestarts =
      obs::registry().counter("stream.solve.incremental_restarts");
  static obs::Gauge& deltaGauge =
      obs::registry().gauge("stream.solve.last_delta_m");
  incRestarts.inc();
  const auto result = fusion_.solveIncremental(measurements, seed);

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
  stableStreak_ = delta < opts_.convergeDeltaM ? stableStreak_ + 1 : 0;
  if (!snapshot_.converged &&
      measurements.size() >= opts_.minStopsBeforeConverge &&
      snapshot_.coveredFraction >= opts_.minCoverageForConverge &&
      stableStreak_ >= opts_.convergeStreak) {
    snapshot_.converged = true;
    timeToConvergeMs_ = obs::steadyMs() - firstPushMs_;
    snapshot_.hint = "table converged — you can stop sweeping";
    obs::registry().gauge("stream.time_to_converge_ms").set(timeToConvergeMs_);
    obs::registry().counter("stream.sessions.converged").inc();
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

void StreamingSession::nodeDone() {
  std::lock_guard<std::mutex> lock(nodesMutex_);
  --liveNodes_;
  nodesCv_.notify_all();
}

void StreamingSession::joinNodes() {
  std::unique_lock<std::mutex> lock(nodesMutex_);
  nodesCv_.wait(lock, [this] { return liveNodes_ == 0; });
}

StreamingResult StreamingSession::finalize(obs::RunReport* report) {
  UNIQ_SPAN("stream.finalize");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    finalized_ = true;
  }
  // End of stream: drain the graph so every pushed stop has been extracted
  // and folded in before the batch stages run.
  ingestQueue_.close();
  joinNodes();

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
    std::lock_guard<std::mutex> lock(mutex_);
    convergedEarly = snapshot_.converged;
    stopsIngested = snapshot_.stopsIngested;
    stopsUsable = snapshot_.stopsUsable;
    incrementalSolves = snapshot_.incrementalSolves;
    timeToConvergeMs = timeToConvergeMs_;
    wasCancelled = cancelled_;
    // Re-order by sequence number (std::map iterates in key order), so the
    // assembled capture is independent of arrival order.
    capture.stops.reserve(stopsBySeq_.size());
    channels.reserve(channelsBySeq_.size());
    for (auto& [seq, stop] : stopsBySeq_) {
      capture.stops.push_back(std::move(stop));
      auto it = channelsBySeq_.find(seq);
      channels.push_back(it != channelsBySeq_.end()
                             ? std::move(it->second)
                             : core::BinauralChannel{});
    }
    stopsBySeq_.clear();
    channelsBySeq_.clear();
  }

  static obs::Counter& finalizedCounter =
      obs::registry().counter("stream.sessions.finalized");
  finalizedCounter.inc();

  const auto wrap = [&](core::PersonalHrtf personal) {
    return StreamingResult{std::move(personal), convergedEarly, stopsIngested,
                           stopsUsable,         incrementalSolves,
                           timeToConvergeMs};
  };

  // Extraction ran stop by stop on the extract node; record its total as
  // the one "extract" stage of this run.
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
