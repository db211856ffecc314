#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uniq::obs {

/// 64-bit trace-context id: one per logical job/request, carried across
/// threads so every span a job touches — on whichever pool worker it ran —
/// can be attributed back to it. 0 means "no context".
using TraceId = std::uint64_t;

/// One completed trace span as recorded by a Span object.
struct SpanRecord {
  std::string name;        ///< span name, e.g. "dsf.solve"
  std::uint64_t id = 0;    ///< process-unique span id (creation order)
  std::uint64_t parent = 0;  ///< id of the enclosing span on the same
                             ///< thread; 0 when the span is a root
  std::uint32_t depth = 0;   ///< nesting depth on its thread (root = 0)
  std::uint32_t tid = 0;     ///< small per-thread index (stable per thread)
  TraceId traceId = 0;       ///< owning job's trace context (0 = none)
  double startUs = 0.0;      ///< start time, microseconds since trace epoch
  double durUs = 0.0;        ///< wall duration in microseconds
};

/// Allocate a fresh process-unique trace id (never 0).
TraceId newTraceId();

/// The calling thread's current trace context (0 when none is active).
/// Spans opened on this thread record it; common::ThreadPool::submit
/// captures it at submit time and restores it inside the worker, so the
/// context follows the work, not the thread.
TraceId currentTraceId();

/// RAII trace-context scope: installs `id` as the calling thread's context
/// and restores the previous one on destruction. Used per job by
/// serve::CalibrationService and per session by stream::StreamingSession.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceId id);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceId prev_;
};

/// Whether spans currently record anything. Reads a relaxed atomic; safe to
/// call from any thread. Defaults to true unless the UNIQ_OBSERVABILITY
/// environment variable is set to "0", "off", or "false" at first use.
bool traceEnabled();

/// Turn span recording on or off at runtime. Spans opened while disabled
/// record nothing (their destructors are no-ops), so toggling mid-run is
/// safe. Overrides the environment default.
void setTraceEnabled(bool enabled);

/// Discard every recorded span (all threads) and restart the trace epoch.
/// Call between runs to keep exports scoped to one pipeline invocation.
void clearTrace();

/// Cap on completed spans retained per thread. Once a thread's buffer is
/// full, further spans are dropped (counted in the process-wide
/// `obs.trace.dropped` counter) instead of growing memory without bound —
/// what makes always-on tracing safe through a 100k-user serve-load run.
/// Defaults to the UNIQ_TRACE_MAX_SPANS environment variable at first use
/// (262144 when unset); 0 means unlimited.
std::size_t traceMaxSpansPerThread();

/// Override the per-thread span cap at runtime (0 = unlimited). Takes
/// effect for spans recorded after the call; clearTrace() empties the
/// buffers so a lowered cap applies cleanly from the next run.
void setTraceMaxSpansPerThread(std::size_t cap);

/// Snapshot of all spans completed so far, across every thread, sorted by
/// start time. Spans still open (their Span object is alive) are not
/// included. Thread-safe; may be called while other threads keep tracing.
std::vector<SpanRecord> collectSpans();

/// RAII trace span: records wall time, thread id, and parent/child nesting
/// into a per-thread buffer on destruction. Construction and destruction
/// cost a few nanoseconds when tracing is runtime-disabled and roughly a
/// hundred nanoseconds when enabled (one uncontended per-thread lock).
///
/// Use via the UNIQ_SPAN macro:
///
///     void SensorFusion::solve(...) {
///       UNIQ_SPAN("dsf.solve");
///       ...
///     }
class Span {
 public:
  /// `name` must outlive the span (string literals always do).
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint32_t depth_ = 0;
  TraceId traceId_ = 0;
  double startSteadyUs_ = 0.0;  ///< on steadyMs()'s fixed epoch, in us
  bool active_ = false;
};

/// Microseconds since the trace epoch (process start or the last
/// clearTrace()): the time base of SpanRecord::startUs. Time an interval
/// with steadyMs() instead, whose epoch a trace reset does not move.
double nowUs();

}  // namespace uniq::obs

#define UNIQ_OBS_CONCAT_INNER(a, b) a##b
#define UNIQ_OBS_CONCAT(a, b) UNIQ_OBS_CONCAT_INNER(a, b)

/// Opens an RAII trace span covering the rest of the enclosing scope.
#define UNIQ_SPAN(name) \
  ::uniq::obs::Span UNIQ_OBS_CONCAT(uniqObsSpan_, __LINE__)(name)
