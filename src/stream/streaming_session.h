#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/channel_extractor.h"
#include "core/pipeline.h"
#include "core/sensor_fusion.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/measurement_session.h"
#include "stream/bounded_queue.h"

namespace uniq::stream {

/// Everything about a calibration capture except the stops: the per-session
/// metadata a real device sends once, before the sweep starts streaming.
struct CaptureHeader {
  double sampleRate = 0.0;
  std::vector<double> sourceSignal;                    ///< the chirp played
  std::vector<dsp::Complex> hardwareResponseEstimate;  ///< Section 4.6

  /// Header taken from an existing (batch) capture — what a replay does.
  static CaptureHeader fromCapture(const sim::CalibrationCapture& capture) {
    return CaptureHeader{capture.sampleRate, capture.sourceSignal,
                         capture.hardwareResponseEstimate};
  }
};

/// Live view of how well the sweep covers the azimuth hemicircle, emitted by
/// the coverage node after every processed stop. This is the "keep sweeping —
/// rear arc is thin" feedback a capture app shows during acquisition.
struct CoverageSnapshot {
  std::size_t stopsIngested = 0;   ///< stops pushed into the session
  std::size_t stopsExtracted = 0;  ///< stops through the extraction node
  std::size_t stopsUsable = 0;     ///< extracted stops that passed the gate
  /// Fraction of azimuth arc bins over [0, 180] deg holding at least one
  /// usable stop. Monotone non-decreasing over a session: bins are latched
  /// when first covered, so later re-localization never un-covers one.
  double coveredFraction = 0.0;
  /// Widest contiguous uncovered arc (deg) and its bounds.
  double worstGapDeg = 0.0;
  double worstGapLoDeg = 0.0;
  double worstGapHiDeg = 0.0;
  /// Human-readable guidance ("rear arc thin — keep sweeping", "coverage
  /// looks good — hold until the table converges", ...).
  std::string hint;
  /// Latest incremental head estimate and its Eq. 2 objective (population
  /// average / 0 until the first incremental solve has run).
  head::HeadParameters headEstimate;
  double objectiveDeg2 = 0.0;
  std::size_t incrementalSolves = 0;
  /// True once the running table has stabilized (see
  /// StreamingSessionOptions convergence knobs).
  bool converged = false;
};

struct StreamingSessionOptions {
  /// Stage configuration shared with the batch pipeline. Streaming finalize
  /// runs the identical stage code on the identical inputs, which is what
  /// makes the final table bitwise-equal to CalibrationPipeline::run (see
  /// docs/STREAMING.md, "Equality contract").
  core::CalibrationPipelineOptions pipeline{};
  /// Capacity of each inter-node queue. Small on purpose: the queues carry
  /// backpressure, not buffering — a phone streams stops every few hundred
  /// milliseconds while extraction takes ~1 ms.
  std::size_t queueCapacity = 8;
  /// Run an incremental warm-started solve every this many new usable
  /// stops (1 = after every usable stop).
  std::size_t solveEvery = 1;
  /// Convergence: require at least this many usable stops ...
  std::size_t minStopsBeforeConverge = 8;
  /// ... at least this fraction of azimuth bins covered ...
  double minCoverageForConverge = 0.55;
  /// ... and `convergeStreak` consecutive incremental solves whose head
  /// estimate moved less than `convergeDeltaM` meters (max over axes).
  double convergeDeltaM = 5.0e-4;
  std::size_t convergeStreak = 3;
  /// Azimuth arc bin width (deg) for the coverage estimate.
  double coverageBinDeg = 15.0;
  /// Worker threads for the node loops (extract, fuse+coverage). The
  /// session owns its own small common::ThreadPool so node loops can block
  /// on their queues without tying up the caller's (or a service's) pool.
  std::size_t workerThreads = 2;
};

/// What finalize() returns: the batch-identical calibration result plus the
/// streaming session's own accounting.
struct StreamingResult {
  core::PersonalHrtf personal;
  /// True when the convergence signal fired before finalize() was called —
  /// the sweep ended early because the table had stabilized.
  bool convergedEarly = false;
  std::size_t stopsIngested = 0;
  std::size_t stopsUsable = 0;
  std::size_t incrementalSolves = 0;
  /// First push -> convergence signal (0 when the session never converged).
  double timeToConvergeMs = 0.0;
};

/// Streaming calibration session: the batch pipeline's stages decomposed
/// into dataflow nodes — extract -> fuse -> coverage — connected by bounded
/// queues and fed one stop at a time, the way a real device streams audio +
/// IMU while the user sweeps (docs/STREAMING.md has the full graph and
/// contracts).
///
///   push(stop) -> [ingest q] -> extract node -> [fused q] -> fuse node
///                                                              |
///                                     coverage()/converged() <-+
///
/// The extract node runs the per-stop channel deconvolution as stops
/// arrive; the fuse node maintains a *running* DSF solve, warm-started from
/// the previous head estimate (one Levenberg-Marquardt start at the last
/// E; the persistent SensorFusion's geometry LRU and the localizer's warm
/// Brent brackets carry over between solves, so refinements cost a fraction
/// of a cold solve); the coverage node folds every update into a live
/// CoverageSnapshot and raises the convergence signal once the estimate
/// stabilizes — the moment the capture app can tell the user to stop
/// sweeping.
///
/// finalize() then runs the remaining batch stages (quality gate, robust
/// fusion, near-field, near-far, gesture) over exactly the ingested stops
/// and their already-extracted channels, via
/// CalibrationPipeline::runFromChannels — so a session that saw every stop
/// of a capture produces a bitwise-identical table to the batch run.
///
/// Thread-safety: push/coverage/converged/cancel are safe from any thread;
/// finalize must be called once, after the producer is done pushing.
class StreamingSession {
 public:
  using Options = StreamingSessionOptions;

  explicit StreamingSession(CaptureHeader header, Options opts = {});
  /// Closes the graph and joins the node loops (discarding any un-finalized
  /// work).
  ~StreamingSession();

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Ingest one stop. Blocks when the ingest queue is full (backpressure).
  /// `seq` is the stop's position in the sweep; stops may arrive in any
  /// order (late IMU packets, retransmits) and are re-ordered by `seq` at
  /// finalize, so arrival order never changes the result. Omitted, it
  /// defaults to the arrival index. Returns false once the session is
  /// finalized or cancelled (the stop is dropped).
  bool push(sim::CalibrationStop stop,
            std::optional<std::size_t> seq = std::nullopt);

  /// Latest coverage/quality snapshot (cheap copy under a mutex).
  CoverageSnapshot coverage() const;

  /// True once the running table has stabilized; the producer should stop
  /// sweeping and call finalize().
  bool converged() const;

  /// Abort: finalize() will return the population-average fallback with
  /// aborted = true, mirroring a batch run whose RunAbortToken fired.
  void cancel();

  /// Drain the graph and run the remaining batch stages over everything
  /// ingested. Fills `report` (when non-null) like the batch pipeline,
  /// with the "extract" stage carrying the summed per-stop extraction time.
  /// Must be called at most once; the session refuses pushes afterwards.
  StreamingResult finalize(obs::RunReport* report = nullptr);

  /// The session's trace context: inherited from the constructing thread
  /// (e.g. a CalibrationService job) when one is active, freshly allocated
  /// otherwise. Spans from both node loops carry it.
  obs::TraceId traceId() const { return traceId_; }

 private:
  struct IngestedStop {
    std::size_t seq = 0;
    sim::CalibrationStop stop;
  };
  struct ExtractedStop {
    std::size_t seq = 0;
    double imuAngleDeg = 0.0;
    core::BinauralChannel channel;
  };

  void extractLoop();
  void fuseLoop();
  /// Fold one extracted stop into the running state and run the warm
  /// incremental solve when one is due. Called from fuseLoop only.
  void absorbStop(ExtractedStop&& stop);
  /// Recompute the latched-bin coverage snapshot. Caller holds mutex_.
  void updateCoverage(double angleDeg, bool usable);
  /// Node-loop completion latch: each loop signals nodeDone() on exit;
  /// finalize/destruction block in joinNodes() until both have.
  void nodeDone();
  void joinNodes();

  CaptureHeader header_;
  Options opts_;
  obs::TraceId traceId_ = 0;
  core::ChannelExtractor extractor_;
  core::SensorFusion fusion_;  ///< persistent: geometry LRU warms up across
                               ///< incremental solves
  core::CalibrationPipeline pipeline_;

  BoundedQueue<IngestedStop> ingestQueue_;
  BoundedQueue<ExtractedStop> fusedQueue_;
  common::ThreadPool nodes_;

  mutable std::mutex mutex_;
  // Accumulated per-seq state, consumed by finalize().
  std::map<std::size_t, sim::CalibrationStop> stopsBySeq_;
  std::map<std::size_t, core::BinauralChannel> channelsBySeq_;
  std::vector<core::FusionMeasurement> measurements_;  ///< usable, seq-sorted
  std::vector<bool> coveredBins_;
  CoverageSnapshot snapshot_;
  std::optional<head::HeadParameters> lastEstimate_;
  std::size_t usableSinceSolve_ = 0;
  std::size_t stableStreak_ = 0;
  double extractWallMs_ = 0.0;
  double firstPushMs_ = 0.0;
  double timeToConvergeMs_ = 0.0;
  std::size_t nextArrivalSeq_ = 0;
  bool cancelled_ = false;
  bool finalized_ = false;

  std::mutex nodesMutex_;
  std::condition_variable nodesCv_;
  int liveNodes_ = 0;
};

}  // namespace uniq::stream
