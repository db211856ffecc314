#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/hrtf_table.h"
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

/// Bitwise table equality: exact double comparison on every HRIR sample of
/// both tiers and on the far tier's tap positions — not "close", equal.
inline void expectTablesBitwiseEqual(const core::HrtfTable& a,
                                     const core::HrtfTable& b) {
  const auto& an = a.nearTable();
  const auto& bn = b.nearTable();
  ASSERT_EQ(an.byDegree.size(), bn.byDegree.size());
  for (std::size_t i = 0; i < an.byDegree.size(); ++i) {
    EXPECT_EQ(an.byDegree[i].left, bn.byDegree[i].left) << "near deg " << i;
    EXPECT_EQ(an.byDegree[i].right, bn.byDegree[i].right) << "near deg " << i;
  }

  const auto& af = a.farTable();
  const auto& bf = b.farTable();
  ASSERT_EQ(af.byDegree.size(), bf.byDegree.size());
  for (std::size_t i = 0; i < af.byDegree.size(); ++i) {
    EXPECT_EQ(af.byDegree[i].left, bf.byDegree[i].left) << "far deg " << i;
    EXPECT_EQ(af.byDegree[i].right, bf.byDegree[i].right) << "far deg " << i;
  }
  EXPECT_EQ(af.tapLeftSamples, bf.tapLeftSamples);
  EXPECT_EQ(af.tapRightSamples, bf.tapRightSamples);
}

}  // namespace uniq::test
