#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::obs {

/// Serialize spans as Chrome trace_event JSON (the "Trace Event Format"):
/// one complete ("ph":"X") event per span with microsecond timestamps.
/// Spans are grouped by trace context — pid is the span's trace id (1 for
/// context-less spans) with a process_name metadata row per trace — so the
/// viewer shows one lane per job rather than one flat lane per thread.
/// Open the result at chrome://tracing or https://ui.perfetto.dev.
std::string traceEventJson(const std::vector<SpanRecord>& spans);

/// Serialize a metrics snapshot as a flat JSON document with "counters",
/// "gauges", and "histograms" objects (see docs/OBSERVABILITY.md for the
/// exact schema).
std::string metricsJson(const MetricsSnapshot& snapshot);

/// Write `content` to `path`, overwriting. Returns false (and fills
/// `error` when non-null) on I/O failure instead of throwing, so exporters
/// can run in destruction paths.
bool writeTextFile(const std::string& path, const std::string& content,
                   std::string* error = nullptr);

}  // namespace uniq::obs
