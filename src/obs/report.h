#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::obs {

/// Severity of a pipeline diagnostic. The worst severity across a run maps
/// onto the pipeline status: no warnings -> Ok, any warning -> Degraded,
/// any error -> Failed (see docs/ROBUSTNESS.md for the full contract).
enum class Severity { kInfo, kWarning, kError };

/// Lower-case severity label ("info" / "warning" / "error").
const char* severityName(Severity severity);

/// One structured pipeline diagnostic: which stage noticed a problem, how
/// bad it is, and which capture stops it affects. Diagnostics are the
/// machine-readable counterpart of the old abort-on-first-error throws —
/// a degraded capture produces a list of these instead of an exception.
struct Diagnostic {
  std::string stage;                ///< reporting stage, e.g. "fusion"
  Severity severity = Severity::kInfo;
  std::string message;              ///< human-readable description
  std::vector<std::size_t> stops;   ///< affected capture stop indices (may be empty)
};

/// Structured record of one pipeline stage: wall time plus named numeric
/// results (iteration counts, residuals, sizes). Values keep insertion
/// order so the summary table reads the way the stage reported them.
struct StageReport {
  std::string name;    ///< stage name, e.g. "fusion" (see docs/OBSERVABILITY.md)
  double wallMs = 0.0;  ///< stage wall-clock time in milliseconds

  /// Named numeric results, in insertion order.
  std::vector<std::pair<std::string, double>> values;

  /// Set or overwrite the value named `key`.
  void set(const std::string& key, double value);
  /// Value named `key`, or `fallback` when the stage never set it.
  double value(const std::string& key, double fallback = 0.0) const;
  /// Whether the stage set a value named `key`.
  bool has(const std::string& key) const;
};

/// Structured result of one instrumented run: per-stage timings and
/// residuals, in execution order. Returned by
/// core::CalibrationPipeline::run(capture, &report) so callers consume
/// stage data directly instead of parsing logs.
struct RunReport {
  std::vector<StageReport> stages;

  /// Structured diagnostics accumulated across the run, in emission order.
  std::vector<Diagnostic> diagnostics;

  /// Final pipeline status label ("ok" / "degraded" / "failed"); empty when
  /// the producer predates the resilience layer or did not set it.
  std::string status;

  /// Append a diagnostic.
  void diagnose(std::string stage, Severity severity, std::string message,
                std::vector<std::size_t> stops = {});

  /// Worst severity across all diagnostics (kInfo when there are none).
  Severity worstSeverity() const;

  /// Human-readable diagnostics listing, one "  [severity] stage: message
  /// (stops i, j, ...)" line per diagnostic; empty string when there are
  /// none. Printed by `uniq calibrate` after the stage table.
  std::string diagnosticsText() const;

  /// Stage named `name`, appended (with zero wall time) on first use.
  StageReport& stage(const std::string& name);
  /// Stage named `name`, or nullptr when the run never reported it.
  const StageReport* find(const std::string& name) const;
  /// Names of all reported stages, in execution order.
  std::vector<std::string> stageNames() const;

  /// Human-readable per-stage summary table (the body of
  /// `uniq calibrate --report`): one aligned row per stage with wall time
  /// and every reported value.
  std::string summaryTable() const;
};

/// Milliseconds on the steady clock. Its epoch is fixed, unlike the trace
/// epoch behind nowUs() that clearTrace() restarts, so an interval timed
/// with it survives a trace reset. The one clock for pipeline stages and
/// for the serving layer's queue, run, and job times.
double steadyMs();

/// Record one finished stage: sets `report->stage(name).wallMs` when a
/// report is attached, and observes `wallMs` in the process-wide
/// `pipeline.stage.<name>.ms` histogram either way. StageTimer::stop()
/// lands here; a stage timed in slices (the streaming session extracts
/// stop by stop) records its total once.
void recordStage(RunReport* report, const char* name, double wallMs);

/// Scoped stage timer, the one way a pipeline stage is timed. One start
/// (construction) and one stop (stop() or destruction) feed the report
/// entry and the histogram through recordStage(), and a
/// `pipeline.stage.<name>` trace span covers the same interval when
/// tracing is on.
class StageTimer {
 public:
  /// `name` is a stage name such as "fusion"; `report` may be null.
  StageTimer(RunReport* report, const char* name);
  ~StageTimer();

  /// Stop early and record the elapsed time; the destructor then no-ops.
  void stop();

  /// The stage being timed, or nullptr when no report is attached. Valid
  /// until another stage is appended to the report.
  StageReport* stage() const;

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  RunReport* report_;
  const char* name_;
  std::optional<Span> span_;
  double startMs_;
};

/// Plain-text lines for the counters/gauges whose names start with one of
/// `prefixes` (every instrument when `prefixes` is empty) — the CLI's
/// "perf:" section. One "name value" line per instrument, sorted by name.
std::string summarizeMetrics(const MetricsSnapshot& snapshot,
                             const std::vector<std::string>& prefixes = {});

/// Write the process-wide registry as metrics JSON to the path named by the
/// UNIQ_METRICS_OUT environment variable, if set. Returns true when a file
/// was written. Bench binaries call this last so any run can be asked for
/// its metrics without new flags.
bool exportMetricsIfRequested();

}  // namespace uniq::obs
