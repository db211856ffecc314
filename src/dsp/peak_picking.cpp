#include "dsp/peak_picking.h"

#include <algorithm>
#include <cmath>

namespace uniq::dsp {

namespace {

/// Quadratic refinement of a discrete peak of |h|.
Tap refine(std::span<const double> mag, std::size_t i) {
  Tap tap;
  if (i > 0 && i + 1 < mag.size()) {
    const double ym1 = mag[i - 1];
    const double y0 = mag[i];
    const double yp1 = mag[i + 1];
    const double denom = ym1 - 2 * y0 + yp1;
    double d = 0.0;
    if (std::fabs(denom) > 1e-30) d = 0.5 * (ym1 - yp1) / denom;
    d = std::clamp(d, -0.5, 0.5);
    tap.position = static_cast<double>(i) + d;
    tap.amplitude = y0 - 0.25 * (ym1 - yp1) * d;
  } else {
    tap.position = static_cast<double>(i);
    tap.amplitude = mag[i];
  }
  return tap;
}

std::vector<double> magnitude(std::span<const double> h) {
  std::vector<double> m(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) m[i] = std::fabs(h[i]);
  return m;
}

}  // namespace

std::vector<Tap> findTaps(std::span<const double> h,
                          double relativeThreshold) {
  std::vector<Tap> taps;
  if (h.size() < 3) return taps;
  const auto mag = magnitude(h);
  double peak = 0.0;
  for (const double m : mag) peak = std::max(peak, m);
  if (peak <= 0.0) return taps;
  const double threshold = relativeThreshold * peak;
  for (std::size_t i = 1; i + 1 < mag.size(); ++i) {
    if (mag[i] >= threshold && mag[i] >= mag[i - 1] && mag[i] > mag[i + 1]) {
      taps.push_back(refine(mag, i));
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
