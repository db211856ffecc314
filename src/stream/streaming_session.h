#pragma once

#include <cstddef>
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
  /// True when the convergence signal fired before finalize() was called —
  /// the sweep ended early because the table had stabilized.
  bool convergedEarly = false;
  std::size_t stopsIngested = 0;
  std::size_t stopsUsable = 0;
  std::size_t incrementalSolves = 0;
  /// First push -> convergence signal (0 when the session never converged).
  double timeToConvergeMs = 0.0;
};

/// Streaming calibration session: the batch pipeline fed one stop at a
/// time, the way a real device streams audio + IMU while the user sweeps
/// (docs/STREAMING.md has the contracts).
///
/// push() runs on the caller's thread: it deconvolves the stop's channel,
/// folds it into the live CoverageSnapshot, and refreshes a *running* DSF
/// solve warm-started from the previous head estimate (one
/// Levenberg-Marquardt start at the last E; the persistent SensorFusion's
/// geometry LRU and the localizer's warm Brent brackets carry over between
/// solves, so refinements cost a fraction of a cold solve). When push()
/// returns the stop is folded in, so coverage() and converged() are exact:
/// the convergence signal fires at the same push on every run of the same
/// capture — the moment the capture app can tell the user to stop sweeping.
///
/// finalize() then runs the remaining batch stages (quality gate, robust
/// fusion, near-field, near-far, gesture) over exactly the ingested stops
/// and their already-extracted channels, via
/// CalibrationPipeline::runFromChannels — so a session that saw every stop
/// of a capture produces a bitwise-identical table to the batch run.
///
/// Thread-safety: push() and finalize() belong to one producer thread
/// (finalize once, after the last push); coverage/converged/cancel are safe
/// from any thread and never wait on a solve.
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

  /// Latest coverage/quality snapshot (cheap copy under a mutex).
  CoverageSnapshot coverage() const;

  /// True once the running table has stabilized; the producer may stop
  /// sweeping and call finalize().
  bool converged() const;

  /// Abort: finalize() will return the population-average fallback with
  /// aborted = true, mirroring a batch run whose RunAbortToken fired.
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
  /// Fold one extracted stop into the running state, then run the warm
  /// incremental solve outside the lock when the stop was usable.
  void absorbStop(std::size_t seq, sim::CalibrationStop stop,
                  core::BinauralChannel channel);
  /// Recompute the latched-bin coverage snapshot. Caller holds mutex_.
  void updateCoverage(double angleDeg, bool usable);

  CaptureHeader header_;
  obs::TraceId traceId_ = 0;
  core::ChannelExtractor extractor_;
  core::SensorFusion fusion_;  ///< persistent: geometry LRU warms up across
                               ///< incremental solves
  core::CalibrationPipeline pipeline_;
  double extractWallMs_ = 0.0;  ///< push()/finalize() only: no lock needed

  mutable std::mutex mutex_;
  // Accumulated per-seq state, consumed by finalize().
  struct FoldedStop {
    sim::CalibrationStop stop;
    core::BinauralChannel channel;
  };
  std::map<std::size_t, FoldedStop> stopsBySeq_;
  std::vector<core::FusionMeasurement> measurements_;  ///< usable, seq-sorted
  std::vector<bool> coveredBins_;
  CoverageSnapshot snapshot_;
  std::optional<head::HeadParameters> lastEstimate_;
  std::size_t stableStreak_ = 0;
  double firstPushMs_ = 0.0;
  double timeToConvergeMs_ = 0.0;
  std::size_t nextArrivalSeq_ = 0;
  bool cancelled_ = false;
  bool finalized_ = false;
};

}  // namespace uniq::stream
