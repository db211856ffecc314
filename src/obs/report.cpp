#include "obs/report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/export.h"
#include "obs/trace.h"

namespace uniq::obs {

namespace {

/// Short fixed-point rendering for table cells: residuals and timings read
/// better at a stable precision than with %g's exponent flips.
std::string formatValue(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

/// Per-stage instruments, made once per stage name and never freed: spans
/// keep a pointer to their name until they are collected.
struct StageInstruments {
  std::string spanName;  ///< "pipeline.stage.<name>"
  Histogram* histogram;  ///< "pipeline.stage.<name>.ms"
};

const StageInstruments& stageInstruments(const char* name) {
  static std::mutex mutex;
  static auto* byName = new std::map<std::string, StageInstruments>();
  std::lock_guard<std::mutex> lock(mutex);
  auto it = byName->find(name);
  if (it == byName->end()) {
    const std::string spanName = std::string("pipeline.stage.") + name;
    // 1 us (gesture) to ~17 s in doubling buckets, few enough that the five
    // stage histograms add little to each telemetry tick and scrape.
    Histogram& histogram = registry().histogram(
        spanName + ".ms", HistogramOptions{1e-3, 2.0, 24});
    it = byName->emplace(name, StageInstruments{spanName, &histogram}).first;
  }
  return it->second;
}

}  // namespace

const char* severityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

void RunReport::diagnose(std::string stage, Severity severity,
                         std::string message, std::vector<std::size_t> stops) {
  diagnostics.push_back(Diagnostic{std::move(stage), severity,
                                   std::move(message), std::move(stops)});
}

Severity RunReport::worstSeverity() const {
  Severity worst = Severity::kInfo;
  for (const auto& d : diagnostics)
    if (static_cast<int>(d.severity) > static_cast<int>(worst))
      worst = d.severity;
  return worst;
}

std::string RunReport::diagnosticsText() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) {
    os << "  [" << severityName(d.severity) << "] " << d.stage << ": "
       << d.message;
    if (!d.stops.empty()) {
      os << " (stops ";
      for (std::size_t i = 0; i < d.stops.size(); ++i) {
        if (i > 0) os << ", ";
        os << d.stops[i];
      }
      os << ")";
    }
    os << "\n";
  }
  return os.str();
}

void StageReport::set(const std::string& key, double v) {
  for (auto& kv : values) {
    if (kv.first == key) {
      kv.second = v;
      return;
    }
  }
  values.emplace_back(key, v);
}

double StageReport::value(const std::string& key, double fallback) const {
  for (const auto& kv : values)
    if (kv.first == key) return kv.second;
  return fallback;
}

bool StageReport::has(const std::string& key) const {
  for (const auto& kv : values)
    if (kv.first == key) return true;
  return false;
}

StageReport& RunReport::stage(const std::string& name) {
  for (auto& s : stages)
    if (s.name == name) return s;
  stages.push_back(StageReport{name, 0.0, {}});
  return stages.back();
}

const StageReport* RunReport::find(const std::string& name) const {
  for (const auto& s : stages)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<std::string> RunReport::stageNames() const {
  std::vector<std::string> names;
  names.reserve(stages.size());
  for (const auto& s : stages) names.push_back(s.name);
  return names;
}

std::string RunReport::summaryTable() const {
  // Column widths from content so the table stays aligned however large
  // the numbers get.
  std::size_t nameWidth = 5;  // "stage"
  std::size_t timeWidth = 7;  // "wall ms"
  double totalMs = 0.0;
  std::vector<std::string> times;
  for (const auto& s : stages) {
    nameWidth = std::max(nameWidth, s.name.size());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", s.wallMs);
    times.emplace_back(buf);
    timeWidth = std::max(timeWidth, times.back().size());
    totalMs += s.wallMs;
  }
  char totalBuf[32];
  std::snprintf(totalBuf, sizeof(totalBuf), "%.2f", totalMs);
  const std::string totalStr(totalBuf);
  timeWidth = std::max(timeWidth, totalStr.size());

  std::ostringstream os;
  os << "  " << std::string(nameWidth - 5, ' ') << "stage  "
     << std::string(timeWidth - 7, ' ') << "wall ms  details\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    os << "  " << std::string(nameWidth - s.name.size(), ' ') << s.name
       << "  " << std::string(timeWidth - times[i].size(), ' ') << times[i]
       << "  ";
    bool first = true;
    for (const auto& kv : s.values) {
      if (!first) os << "  ";
      first = false;
      os << kv.first << "=" << formatValue(kv.second);
    }
    os << "\n";
  }
  os << "  " << std::string(nameWidth - 5, ' ') << "total  "
     << std::string(timeWidth - totalStr.size(), ' ') << totalStr << "\n";
  if (!status.empty()) os << "  status: " << status << "\n";
  return os.str();
}

double steadyMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void recordStage(RunReport* report, const char* name, double wallMs) {
  if (report) report->stage(name).wallMs = wallMs;
  stageInstruments(name).histogram->observe(wallMs);
}

StageTimer::StageTimer(RunReport* report, const char* name)
    : report_(report), name_(name) {
  span_.emplace(stageInstruments(name).spanName.c_str());
  startMs_ = steadyMs();
}

void StageTimer::stop() {
  if (!span_) return;
  const double wallMs = steadyMs() - startMs_;
  span_.reset();
  recordStage(report_, name_, wallMs);
}

StageTimer::~StageTimer() { stop(); }

StageReport* StageTimer::stage() const {
  return report_ ? &report_->stage(name_) : nullptr;
}

std::string summarizeMetrics(const MetricsSnapshot& snapshot,
                             const std::vector<std::string>& prefixes) {
  const auto matches = [&](const std::string& name) {
    if (prefixes.empty()) return true;
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string& p) {
                         return name.rfind(p, 0) == 0;
                       });
  };
  std::vector<std::string> lines;
  for (const auto& c : snapshot.counters)
    if (matches(c.name))
      lines.push_back("  " + c.name + " " + std::to_string(c.value) + "\n");
  for (const auto& g : snapshot.gauges)
    if (matches(g.name))
      lines.push_back("  " + g.name + " " + formatValue(g.value) + "\n");
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line;
  return out;
}

bool exportMetricsIfRequested() {
  const char* path = std::getenv("UNIQ_METRICS_OUT");
  if (!path || !*path) return false;
  return writeTextFile(path, metricsJson(registry().snapshot()));
}

}  // namespace uniq::obs
