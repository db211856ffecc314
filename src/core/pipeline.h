#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/channel_extractor.h"
#include "core/gesture_validator.h"
#include "core/hrtf_table.h"
#include "core/near_far.h"
#include "core/near_field_hrtf.h"
#include "core/sensor_fusion.h"
#include "obs/report.h"
#include "sim/measurement_session.h"

namespace uniq::core {

/// Terminal state of one calibration run. The pipeline degrades instead of
/// dying: a capture with some corrupted stops still produces a personalized
/// table (kDegraded), and even an unusable capture produces the
/// population-average table (kFailed) rather than an exception — a
/// calibration service cannot 500 because the user's earbud fell out.
enum class PipelineStatus {
  kOk,        ///< clean run; every quality gate passed
  kDegraded,  ///< usable result, but stops were rejected or coverage is thin
  kFailed,    ///< could not personalize; fallback population-average table
};

/// Stable lower-case name ("ok", "degraded", "failed").
const char* pipelineStatusName(PipelineStatus status);

/// Cooperative cancellation / deadline token for one pipeline run. The
/// serving layer hands the same token to CalibrationPipeline::run and to
/// whoever may cancel the job; the pipeline polls it at stage boundaries
/// only (never mid-stage), so an abort takes effect at the next boundary
/// and an in-flight stage always completes or fails on its own terms.
/// All members are safe to call from any thread.
class RunAbortToken {
 public:
  /// Ask the run to stop at the next stage boundary.
  void requestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once requestCancel() was called.
  bool cancelRequested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Abort the run once the steady clock passes `deadline`.
  void setDeadline(std::chrono::steady_clock::time_point deadline) {
    deadlineNs_.store(deadline.time_since_epoch().count(),
                      std::memory_order_relaxed);
  }

  /// True when the run should stop: cancelled, or past the deadline.
  bool due() const {
    if (cancelRequested()) return true;
    const auto ns = deadlineNs_.load(std::memory_order_relaxed);
    return ns != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= ns;
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// Steady-clock deadline in clock ticks since epoch; 0 = no deadline.
  std::atomic<std::int64_t> deadlineNs_{0};
};

/// Everything UNIQ produces from one calibration sweep.
struct PersonalHrtf {
  HrtfTable table;
  head::HeadParameters headParams;
  SensorFusionResult fusion;
  GestureReport gestureReport;
  PipelineStatus status = PipelineStatus::kOk;
  /// Structured trail of everything that went wrong (or was tolerated):
  /// stage, severity, message, affected stop indices. Mirrored into the
  /// RunReport when one is attached.
  std::vector<obs::Diagnostic> diagnostics;
  /// True when the run stopped early because its RunAbortToken fired
  /// (cancellation or deadline). The result then carries the fallback
  /// table and status kFailed; the serving layer maps this flag onto its
  /// cancelled/expired job states instead of treating it as a real failure.
  bool aborted = false;
};

struct CalibrationPipelineOptions {
  ChannelExtractorOptions extractor{};
  SensorFusionOptions fusion{};
  NearFieldBuilderOptions nearField{};
  NearFarConverterOptions nearFar{};
  /// Fewest quality-gated stops the pipeline will attempt to personalize
  /// from; below this the run fails over to the population-average table.
  std::size_t minUsableStops = 6;
};

/// End-to-end UNIQ pipeline (paper Figure 6): channel extraction ->
/// diffraction-aware sensor fusion -> near-field interpolation -> near-far
/// conversion -> exported HRTF table. The input is exactly what the phone
/// and earbuds captured; ground truth in the capture is ignored.
class CalibrationPipeline {
 public:
  using Options = CalibrationPipelineOptions;

  explicit CalibrationPipeline(Options opts = {});

  /// Runs the full pipeline. Throws InvalidArgument only for a structurally
  /// empty capture (no stops at all); every data-quality failure —
  /// clipping, dropouts, too few usable stops, non-converging fusion — is
  /// absorbed into the returned status/diagnostics instead of an exception.
  ///
  /// `report` (when non-null) receives one StageReport per pipeline stage,
  /// in execution order:
  ///
  ///   - "extract"   — wallMs; `stops` (capture stops processed),
  ///                   `tapsDetected` (stops with a first tap in both ears)
  ///   - "fusion"    — wallMs; `iterations` (Levenberg-Marquardt
  ///                   iterations of the final solve, over its
  ///                   restarts), `evals` and `jacobians` (objective
  ///                   evaluations and Jacobian builds of every solve
  ///                   the stage ran), `restarts`, `converged` (0/1),
  ///                   `localized` (stops the localizer placed),
  ///                   `objectiveDeg2` (final Eq. 2 objective incl. prior),
  ///                   `residualRmsDeg` (RMS IMU-vs-acoustic disagreement),
  ///                   `rejected`, `widened`, `rejectMarginDeg` (the last
  ///                   reject round's closest call; NaN when none ran)
  ///   - "nearfield" — wallMs; `usableStops`, `medianRadiusM`,
  ///                   `tapAlignRmsUs` (per-stop RMS error between the
  ///                   measured interaural first-tap delay and the fused
  ///                   diffraction model's prediction, microseconds)
  ///   - "nearfar"   — wallMs; `entries` (far-field table angles)
  ///   - "gesture"   — wallMs; `ok` (0/1), `issues` (flag count)
  ///
  /// Each stage is timed by an obs::StageTimer, which also feeds the
  /// `pipeline.stage.<name>.ms` histogram whether or not a report is
  /// attached. The output is the same with or without a report.
  ///
  /// `abort` (when non-null) is polled at every stage boundary. Once the
  /// token is due — cancelled or past its deadline — the pipeline stops
  /// doing work and returns the population-average fallback with status
  /// kFailed, aborted = true, and a diagnostic naming the abort.
  PersonalHrtf run(const sim::CalibrationCapture& capture,
                   obs::RunReport* report = nullptr,
                   const RunAbortToken* abort = nullptr) const;

  /// Post-extraction pipeline: quality gating, fusion, near-field,
  /// near-far, and gesture validation over already-extracted per-stop
  /// channels (`channels[i]` belongs to `capture.stops[i]`). This is the
  /// code path batch run() takes after extractChannels, exposed so a
  /// streaming session that extracted its stops incrementally can finalize
  /// through the *identical* stages — which is what makes a streaming
  /// session that saw every stop produce a bitwise-identical table to the
  /// batch run (see docs/STREAMING.md). Same totality, report ("extract"
  /// stage values are set when the report already carries that stage),
  /// and abort semantics as run().
  PersonalHrtf runFromChannels(const sim::CalibrationCapture& capture,
                               const std::vector<BinauralChannel>& channels,
                               obs::RunReport* report = nullptr,
                               const RunAbortToken* abort = nullptr) const;

  /// Terminal fallback: the population-average table with status kFailed
  /// and the given diagnostics attached. run() ends here when the capture
  /// cannot support personalization; a cancelled or empty streaming session
  /// calls it directly.
  PersonalHrtf populationFallback(const sim::CalibrationCapture& capture,
                                  std::vector<obs::Diagnostic> diagnostics,
                                  obs::RunReport* report = nullptr) const;

  /// Intermediate access for experiments: per-stop channels only.
  std::vector<BinauralChannel> extractChannels(
      const sim::CalibrationCapture& capture) const;

  /// Intermediate access: fusion measurements derived from channels.
  static std::vector<FusionMeasurement> toFusionMeasurements(
      const sim::CalibrationCapture& capture,
      const std::vector<BinauralChannel>& channels);

 private:
  Options opts_;
};

}  // namespace uniq::core
