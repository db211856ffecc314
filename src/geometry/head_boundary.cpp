#include "geometry/head_boundary.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"
#include "dsp/kernels/kernels.h"

namespace uniq::geo {

namespace {

/// Boundary point at parameter t in [0, 2*pi), given s = sin t and
/// co = cos t: front half-ellipse (a, b) for t in (0, pi), back
/// half-ellipse (a, c) for t in (pi, 2*pi).
Vec2 boundaryPoint(double a, double b, double c, double s, double co) {
  const double semiY = s >= 0.0 ? b : c;
  return {a * co, semiY * s};
}

/// Outward unit normal at the same parameter. For an axis-aligned ellipse
/// (a, e) the (unnormalized) outward normal at (a cos t, e sin t) is
/// (e cos t, a sin t).
Vec2 boundaryNormal(double a, double b, double c, double s, double co) {
  const double semiY = s >= 0.0 ? b : c;
  Vec2 n{semiY * co, a * s};
  return n.normalized();
}

}  // namespace

HeadBoundary::HeadBoundary(double a, double b, double c,
                           std::size_t resolution)
    : HeadBoundary(a, b, c, {}, resolution) {}

HeadBoundary::HeadBoundary(double a, double b, double c,
                           const std::vector<BoundaryHarmonic>& harmonics,
                           std::size_t resolution)
    : a_(a),
      b_(b),
      c_(c),
      invA2_(1.0 / (a * a)),
      invB2_(1.0 / (b * b)),
      invC2_(1.0 / (c * c)) {
  UNIQ_REQUIRE(a > 0 && b > 0 && c > 0, "head axes must be positive");
  UNIQ_REQUIRE(resolution >= 16 && resolution % 2 == 0,
               "resolution must be even and >= 16");
  points_.resize(resolution);
  normals_.resize(resolution);
  cumArc_.resize(resolution + 1);
  // sin t and cos t of each sample, shared by its point and its normal.
  std::vector<double> sines(resolution), cosines(resolution);
  for (std::size_t i = 0; i < resolution; ++i) {
    const double t = kTwoPi * static_cast<double>(i) /
                     static_cast<double>(resolution);
    sines[i] = std::sin(t);
    cosines[i] = std::cos(t);
    Vec2 p = boundaryPoint(a, b, c, sines[i], cosines[i]);
    if (!harmonics.empty()) {
      double scale = 1.0;
      for (const auto& h : harmonics)
        scale += h.amplitude * std::cos(h.order * t + h.phaseRad);
      // Fade the perturbation out near the ears (t = 0, pi) so the ear
      // junction points stay exactly at (+/-a, 0).
      const double window = square(sines[i]);
      p = p * (1.0 + (scale - 1.0) * window);
    }
    points_[i] = p;
  }
  if (harmonics.empty()) {
    for (std::size_t i = 0; i < resolution; ++i)
      normals_[i] = boundaryNormal(a, b, c, sines[i], cosines[i]);
  } else {
    // Numeric outward normals from central-difference tangents (boundary is
    // counter-clockwise, so outward = rotate tangent by -90 degrees).
    for (std::size_t i = 0; i < resolution; ++i) {
      const Vec2 prev = points_[(i + resolution - 1) % resolution];
      const Vec2 next = points_[(i + 1) % resolution];
      const Vec2 tangent = (next - prev).normalized();
      normals_[i] = Vec2{tangent.y, -tangent.x};
    }
  }
  cumArc_[0] = 0.0;
  for (std::size_t i = 0; i < resolution; ++i) {
    const Vec2 next = points_[(i + 1) % resolution];
    cumArc_[i + 1] = cumArc_[i] + distance(points_[i], next);
  }
  totalArc_ = cumArc_[resolution];
  nx_.resize(resolution);
  ny_.resize(resolution);
  cdot_.resize(resolution);
  for (std::size_t i = 0; i < resolution; ++i) {
    nx_[i] = normals_[i].x;
    ny_[i] = normals_[i].y;
    cdot_[i] = dot(points_[i], normals_[i]);
  }
  tangents_.resize(resolution);
  for (std::size_t i = 0; i < resolution; ++i) {
    const Vec2 prev = points_[(i + resolution - 1) % resolution];
    const Vec2 next = points_[(i + 1) % resolution];
    tangents_[i] = (next - prev).normalized();
  }
}

Vec2 HeadBoundary::pointAt(double u) const {
  const auto n = static_cast<double>(size());
  const double w = wrapRingIndex(u, n);
  const auto i = static_cast<std::size_t>(w);
  const double f = w - static_cast<double>(i);
  const Vec2 p0 = points_[i];
  const Vec2 p1 = points_[(i + 1) % size()];
  return lerp(p0, p1, f);
}

double HeadBoundary::arcForward(double u1, double u2) const {
  const auto n = static_cast<double>(size());
  auto arcAt = [&](double u) {
    const double w = wrapRingIndex(u, n);
    const auto i = static_cast<std::size_t>(w);
    const double f = w - static_cast<double>(i);
    return cumArc_[i] + f * (cumArc_[i + 1] - cumArc_[i]);
  };
  double d = arcAt(u2) - arcAt(u1);
  if (d < 0) d += totalArc_;
  return d;
}

double HeadBoundary::arcShortest(double u1, double u2) const {
  const double f = arcForward(u1, u2);
  return std::min(f, totalArc_ - f);
}

double HeadBoundary::visibilityValue(Vec2 p, std::size_t i) const {
  return dot(points_[i] - p, normals_[i]);
}

HeadBoundary::TangentPair HeadBoundary::tangentsFrom(Vec2 p) const {
  UNIQ_REQUIRE(!isInside(p), "tangentsFrom requires an external point");
  dsp::kernels::VisibilityCrossing crossings[2];
  const int found = dsp::kernels::visibilityCrossings(
      nx_.data(), ny_.data(), cdot_.data(), size(), p.x, p.y, crossings, 2);
  UNIQ_CHECK(found == 2, "expected exactly two tangency points");
  return {crossings[0].u, crossings[1].u};
}

HeadBoundary::TangentPair HeadBoundary::terminators(Vec2 direction) const {
  const Vec2 d = direction.normalized();
  UNIQ_REQUIRE(d.norm() > 0.5, "direction must be non-zero");
  dsp::kernels::VisibilityCrossing crossings[2];
  const int found = dsp::kernels::visibilityCrossings(
      nx_.data(), ny_.data(), /*cdot=*/nullptr, size(), d.x, d.y, crossings,
      2);
  UNIQ_CHECK(found == 2, "expected exactly two terminator points");
  return {crossings[0].u, crossings[1].u};
}

double HeadBoundary::indexWithNormal(Vec2 nrm) const {
  const Vec2 target = nrm.normalized();
  std::size_t best = 0;
  double bestDot = -2.0;
  for (std::size_t i = 0; i < size(); ++i) {
    const double d = dot(target, normals_[i]);
    if (d > bestDot) {
      bestDot = d;
      best = i;
    }
  }
  return static_cast<double>(best);
}

}  // namespace uniq::geo
