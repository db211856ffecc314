#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "head/hrir.h"
#include "obs/metrics.h"

namespace uniq::test {

/// Max absolute element difference between two equal-length vectors.
inline double maxAbsDiff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double m = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  for (std::size_t i = n; i < a.size(); ++i) m = std::max(m, std::fabs(a[i]));
  for (std::size_t i = n; i < b.size(); ++i) m = std::max(m, std::fabs(b[i]));
  return m;
}

inline double energy(const std::vector<double>& v) {
  double e = 0.0;
  for (double x : v) e += x * x;
  return e;
}

/// The five calibration stages, in pipeline order.
inline const std::vector<std::string>& pipelineStages() {
  static const std::vector<std::string> stages{"extract", "fusion",
                                               "nearfield", "nearfar",
                                               "gesture"};
  return stages;
}

/// The `pipeline.stage.<stage>.ms` histogram as the process-wide registry
/// holds it now (an empty entry before the stage first ran).
inline obs::MetricsSnapshot::HistogramEntry stageHistogram(
    const std::string& stage) {
  for (const auto& h : obs::registry().snapshot().histograms)
    if (h.name == "pipeline.stage." + stage + ".ms") return h;
  return {};
}

}  // namespace uniq::test
