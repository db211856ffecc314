#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace uniq::obs {

namespace {

/// JSON number formatting: finite values print with enough precision to
/// round-trip; non-finite values (not representable in JSON) print as 0.
void appendNumber(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  os << buf;
}

}  // namespace

std::string traceEventJson(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Chrome trace viewers group rows by pid, so spans are grouped by their
  // trace context (the owning job); context-less spans share pid 1. Trace
  // ids are small sequential integers, safely below the 2^53 JSON limit.
  std::vector<TraceId> seenTraces;
  for (const auto& span : spans) {
    const std::uint64_t pid = span.traceId != 0 ? span.traceId : 1;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << jsonEscape(span.name)
       << "\",\"cat\":\"uniq\",\"ph\":\"X\",\"pid\":" << pid
       << ",\"tid\":" << span.tid << ",\"ts\":";
    appendNumber(os, span.startUs);
    os << ",\"dur\":";
    appendNumber(os, span.durUs);
    os << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
       << ",\"depth\":" << span.depth << ",\"trace\":" << span.traceId
       << "}}";
    if (std::find(seenTraces.begin(), seenTraces.end(), span.traceId) ==
        seenTraces.end()) {
      seenTraces.push_back(span.traceId);
    }
  }
  for (const TraceId traceId : seenTraces) {
    const std::uint64_t pid = traceId != 0 ? traceId : 1;
    const std::string label =
        traceId != 0 ? "trace " + std::to_string(traceId) : "untraced";
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(label) << "\"}}";
  }
  os << "]}";
  return os.str();
}

std::string metricsJson(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << jsonEscape(c.name) << "\":" << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : snapshot.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << jsonEscape(g.name) << "\":";
    appendNumber(os, g.value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << jsonEscape(h.name) << "\":{\"lo\":";
    appendNumber(os, h.options.lo);
    os << ",\"growth\":";
    appendNumber(os, h.options.growth);
    os << ",\"counts\":[";
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k) os << ",";
      os << h.counts[k];
    }
    os << "],\"underflow\":" << h.underflow << ",\"overflow\":" << h.overflow
       << ",\"count\":" << h.count << ",\"sum\":";
    appendNumber(os, h.sum);
    os << "}";
  }
  os << "}}";
  return os.str();
}

bool writeTextFile(const std::string& path, const std::string& content,
                   std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace uniq::obs
