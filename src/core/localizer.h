#pragma once

#include <array>
#include <optional>
#include <vector>

#include "geometry/head_boundary.h"
#include "head/head_parameters.h"

namespace uniq::core {

/// A localized phone position in polar coordinates around the head center.
struct PolarFix {
  double angleDeg = 0.0;
  double radiusM = 0.0;
  /// True when `locate` placed the phone at the closest approach of two
  /// iso-delay curves that do not meet: a grid argmin, not a root.
  bool approximate = false;
};

/// Smallest radius (m) the localizer searches for the phone; the head must
/// fit inside it.
inline constexpr double kLocalizerMinRadiusM = 0.13;

/// The three heads Localizer::angleGradient differentiates against:
/// `head`'s outline (no shape harmonics) at the same resolution, with the
/// a, b or c axis longer by 1e-7 m. Built once per head and shared by
/// every stop.
using PerturbedHeads = std::array<geo::HeadBoundary, 3>;
PerturbedHeads perturbedHeads(const geo::HeadBoundary& head);

/// Localizes the phone from the two first-tap (diffraction path) delays,
/// given a candidate head geometry — the intersection of two iso-delay
/// trajectories (paper Section 4.1, Figure 10(b)). The intersection is
/// generally ambiguous (a front and a back solution); `locate` resolves the
/// ambiguity with the IMU angle, while `locateAll` exposes every solution.
class Localizer {
 public:
  /// Throws InvalidArgument unless kLocalizerMinRadiusM clears every head
  /// axis.
  explicit Localizer(const geo::HeadBoundary& head);

  /// All iso-delay intersections for left/right first-tap delays (seconds).
  std::vector<PolarFix> locateAll(double delayLeftSec,
                                  double delayRightSec) const;

  /// The intersection closest to the IMU angle estimate (the one locateAll
  /// would rank first, found by scanning outward from the IMU angle), the
  /// closest-approach point (`approximate`) when no intersection exists but
  /// the curves nearly meet, or nullopt (inconsistent delays for this head
  /// candidate). Each closest-approach scan counts in
  /// `localizer.fallback.scans`, and one that places nothing also in
  /// `localizer.fallback.unlocalized`.
  std::optional<PolarFix> locate(double delayLeftSec, double delayRightSec,
                                 double imuAngleDeg) const;

  /// The sensitivity d(angleDeg)/d(a, b, c) (degrees per metre) of an
  /// exact fix of this localizer's head, by the implicit-function theorem
  /// rather than a re-solve. The fix (theta, r) solves L(theta, r; E) =
  /// c tau_L and R(theta, r; E) = c tau_R, so d(theta, r)/dE =
  /// -J^-1 d(L, R)/dE with J = d(L, R)/d(theta, r). Both factors are
  /// forward differences of geo::nearFieldPath at the fix: J on this head,
  /// d(L, R)/dE against `perturbed` (perturbedHeads of this head). nullopt
  /// for an approximate fix, whose angle does not follow E smoothly, and
  /// where J is near singular (the two iso-delay curves cross at under
  /// ~0.06 degrees, so the fix slides along them on any change).
  std::optional<std::array<double, 3>> angleGradient(
      const PolarFix& fix, const PerturbedHeads& perturbed) const;

 private:
  /// Radius at which the left-ear path length equals `targetLen` along the
  /// ray with unit direction `dir` (the sin/cos of the scan angle, hoisted
  /// out by the caller so the root-finder's inner evaluations are
  /// trig-free), or nullopt when out of range. `hint` is a warm start from
  /// a nearby scan angle: when the root lies within a small window around
  /// it, Brent runs on that window instead of the full radius range (the
  /// path length is monotone in r for r > ear radius, so a sign change
  /// across the window brackets the unique root).
  std::optional<double> radiusForLeftPath(
      geo::Vec2 dir, double targetLen,
      const std::optional<double>& hint = std::nullopt) const;
  /// Right-ear path residual at the radius solving the left-ear constraint
  /// (NaN when no such radius). `warmRadius`, if non-null, is read as the
  /// hint for the radius solve and updated with the found root — callers
  /// probing nearby angles in turn thread it through. The scan grid passes
  /// none, so each grid residual is a function of its angle alone and
  /// every walk over the grid sees the same signs.
  double rightPathResidual(geo::Vec2 dir, double targetLenLeft,
                           double targetLenRight,
                           std::optional<double>* warmRadius = nullptr) const;
  /// Refines a sign change of the right-ear residual across the scan
  /// bracket [a, b] (degrees; `fa`, `fb` the grid residuals at its edges)
  /// by Brent on the angle, to 1e-6 degrees, and returns the fix there.
  /// Only the trials warm-start each other's radius solves, so the fix
  /// depends on the bracket alone: locate and locateAll agree bit for bit.
  /// nullopt when a trial lands where the left-path radius is undefined
  /// (counted in `localizer.refine.undefined`).
  std::optional<PolarFix> refineBracket(double a, double b, double fa,
                                        double fb, double targetLenLeft,
                                        double targetLenRight) const;

  const geo::HeadBoundary& head_;
};

}  // namespace uniq::core
