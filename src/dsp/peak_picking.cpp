#include "dsp/peak_picking.h"

#include <algorithm>
#include <cmath>

namespace uniq::dsp {

namespace {

/// Quadratic refinement of the discrete peak of |h| at interior index i.
Tap refine(std::span<const double> h, std::size_t i) {
  const double ym1 = std::fabs(h[i - 1]);
  const double y0 = std::fabs(h[i]);
  const double yp1 = std::fabs(h[i + 1]);
  const double denom = ym1 - 2 * y0 + yp1;
  double d = 0.0;
  if (std::fabs(denom) > 1e-30) d = 0.5 * (ym1 - yp1) / denom;
  d = std::clamp(d, -0.5, 0.5);
  return {static_cast<double>(i) + d, y0 - 0.25 * (ym1 - yp1) * d};
}

}  // namespace

std::vector<Tap> findTaps(std::span<const double> h,
                          double relativeThreshold) {
  std::vector<Tap> taps;
  if (h.size() < 3) return taps;
  // Four running maxima instead of one dependent chain; max is exact and
  // skips NaN in any order, so the peak is the same.
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= h.size(); i += 4)
    for (std::size_t l = 0; l < 4; ++l)
      acc[l] = std::max(acc[l], std::fabs(h[i + l]));
  for (; i < h.size(); ++i) acc[0] = std::max(acc[0], std::fabs(h[i]));
  const double peak = std::max({acc[0], acc[1], acc[2], acc[3]});
  if (peak <= 0.0) return taps;
  const double threshold = relativeThreshold * peak;
  for (std::size_t i = 1; i + 1 < h.size(); ++i) {
    const double m = std::fabs(h[i]);
    if (m >= threshold && m >= std::fabs(h[i - 1]) &&
        m > std::fabs(h[i + 1])) {
      taps.push_back(refine(h, i));
    }
  }
  return taps;
}

std::optional<Tap> findFirstTap(std::span<const double> h,
                                double relativeThreshold) {
  auto taps = findTaps(h, relativeThreshold);
  if (taps.empty()) return std::nullopt;
  return taps.front();
}

}  // namespace uniq::dsp
