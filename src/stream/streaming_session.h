#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/channel_extractor.h"
#include "core/pipeline.h"
#include "core/sensor_fusion.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/measurement_session.h"

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

/// Live view of how well the sweep covers the azimuth hemicircle, refreshed
/// by every push(). This is the "keep sweeping — rear arc is thin" feedback
/// a capture app shows during acquisition.
struct CoverageSnapshot {
  std::size_t stopsIngested = 0;   ///< stops pushed into the session
  std::size_t stopsExtracted = 0;  ///< pushed stops already deconvolved
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
  /// True once the running table has stabilized (see the convergence gates
  /// below).
  bool converged = false;
};

/// Convergence gates: the latch fires once at least kMinStopsBeforeConverge
/// usable stops have arrived, at least kMinCoverageForConverge of the
/// azimuth bins (kCoverageBinDeg wide) are covered, and kConvergeStreak
/// consecutive incremental solves moved the head estimate by less than
/// kConvergeDeltaM meters (max over axes).
inline constexpr double kCoverageBinDeg = 15.0;
inline constexpr std::size_t kMinStopsBeforeConverge = 8;
inline constexpr double kMinCoverageForConverge = 0.55;
inline constexpr double kConvergeDeltaM = 5.0e-4;
inline constexpr std::size_t kConvergeStreak = 3;

/// What finalize() returns: the batch-identical calibration result plus the
/// streaming session's own accounting.
struct StreamingResult {
  core::PersonalHrtf personal;
  /// True when the convergence signal fired in a solve that ran before
  /// finalize() — the sweep ended early because the table had stabilized.
  bool convergedEarly = false;
  std::size_t stopsIngested = 0;
  std::size_t stopsUsable = 0;
  /// Incremental solves that ran: those a coverage()/converged() read asked
  /// for before finalize() (0 for a session nobody read).
  std::size_t incrementalSolves = 0;
  /// First push -> the solve that latched convergence, as it ran (0 when
  /// the session never converged).
  double timeToConvergeMs = 0.0;
};

/// Streaming calibration session: the batch pipeline fed one stop at a
/// time, the way a real device streams audio + IMU while the user sweeps
/// (docs/STREAMING.md has the contracts).
///
/// push() runs on the caller's thread: it deconvolves the stop's channel,
/// folds it into the live CoverageSnapshot, and queues that push's inputs
/// for a *running* DSF solve. The solves run only for a reader:
/// coverage() and converged() first replay the queued solves in push
/// order, each warm-started from the previous head estimate (one
/// Levenberg-Marquardt start at the last E; the persistent SensorFusion's
/// geometry LRU and the localizer's warm Brent brackets carry over between
/// solves, so refinements cost a fraction of a cold solve). Each replayed
/// solve sees exactly the inputs an eager solve at its push would have, so
/// the live estimate, the solve count and the push at which the
/// convergence signal fires do not depend on when, or from which thread,
/// the session is read — and a session nobody reads (a service replaying a
/// complete capture) runs no solve at all.
///
/// finalize() drops the solves still queued and runs the remaining batch
/// stages (quality gate, robust fusion, near-field, near-far, gesture) over
/// exactly the ingested stops and their already-extracted channels, via
/// CalibrationPipeline::runFromChannels — so a session that saw every stop
/// of a capture produces a bitwise-identical table to the batch run.
///
/// Thread-safety: push() and finalize() belong to one producer thread
/// (finalize once, after the last push; it lets a solve already running
/// finish). coverage() and converged() are safe from any thread and may run
/// queued solves on it, one reader at a time; cancel() is safe from any
/// thread and never waits.
class StreamingSession {
 public:
  explicit StreamingSession(CaptureHeader header,
                            core::CalibrationPipelineOptions opts = {});

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Ingest one stop and fold it in before returning. `seq` is the stop's
  /// position in the sweep; stops may arrive in any order (late IMU
  /// packets, retransmits) and are re-ordered by `seq` at finalize, so
  /// arrival order never changes the table. Omitted, it defaults to the
  /// arrival index. Returns false once the session is finalized or
  /// cancelled (the stop is dropped).
  bool push(sim::CalibrationStop stop,
            std::optional<std::size_t> seq = std::nullopt);

  /// Latest coverage/quality snapshot, after running the queued solves.
  CoverageSnapshot coverage() const;

  /// True once the running table has stabilized (after running the queued
  /// solves); the producer may stop sweeping and call finalize().
  bool converged() const;

  /// Abort: drops the queued solves, and finalize() will return the
  /// population-average fallback with aborted = true, mirroring a batch run
  /// whose RunAbortToken fired.
  void cancel();

  /// Run the remaining batch stages over everything ingested. Fills
  /// `report` (when non-null) like the batch pipeline, with the "extract"
  /// stage carrying the summed per-stop extraction time. Must be called at
  /// most once; the session refuses pushes afterwards.
  StreamingResult finalize(obs::RunReport* report = nullptr);

  /// The session's trace context: inherited from the constructing thread
  /// (e.g. a CalibrationService job) when one is active, freshly allocated
  /// otherwise. Spans from push() and finalize() carry it.
  obs::TraceId traceId() const { return traceId_; }

 private:
  /// The inputs of one incremental solve, as of the push that queued it.
  struct PendingSolve {
    std::vector<core::FusionMeasurement> measurements;  ///< usable, seq-sorted
    double coveredFraction = 0.0;
  };

  /// Fold one extracted stop into the running state and, when the stop was
  /// usable, queue its incremental solve.
  void absorbStop(std::size_t seq, sim::CalibrationStop stop,
                  core::BinauralChannel channel);
  /// Run the queued solves in push order, each outside mutex_, and fold
  /// their results into the live state. Serialized by solveMutex_.
  void runPendingSolves() const;
  /// Recompute the latched-bin coverage snapshot. Caller holds mutex_.
  void updateCoverage(double angleDeg, bool usable);

  CaptureHeader header_;
  obs::TraceId traceId_ = 0;
  core::ChannelExtractor extractor_;
  core::SensorFusion fusion_;  ///< persistent: geometry LRU warms up across
                               ///< incremental solves (under solveMutex_)
  core::CalibrationPipeline pipeline_;
  double extractWallMs_ = 0.0;  ///< push()/finalize() only: no lock needed

  mutable std::mutex solveMutex_;  ///< one replaying reader at a time
  mutable std::mutex mutex_;       ///< everything below
  // Accumulated per-seq state, consumed by finalize().
  struct FoldedStop {
    sim::CalibrationStop stop;
    core::BinauralChannel channel;
  };
  std::map<std::size_t, FoldedStop> stopsBySeq_;
  std::vector<core::FusionMeasurement> measurements_;  ///< usable, seq-sorted
  std::vector<bool> coveredBins_;
  // The live state a reader's replayed solves advance (hence mutable: a
  // read runs the solves an eager push would have run).
  mutable std::deque<PendingSolve> pendingSolves_;
  mutable CoverageSnapshot snapshot_;
  mutable std::optional<head::HeadParameters> lastEstimate_;
  mutable std::size_t stableStreak_ = 0;
  mutable double timeToConvergeMs_ = 0.0;
  double firstPushMs_ = 0.0;
  std::size_t nextArrivalSeq_ = 0;
  bool cancelled_ = false;
  bool finalized_ = false;
};

}  // namespace uniq::stream
