#include "core/localizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "obs/metrics.h"
#include "optim/root_finding.h"

namespace uniq::core {

namespace {

/// Largest radius (m) the localizer searches for the phone.
constexpr double kMaxRadiusM = 1.2;
static_assert(kMaxRadiusM > kLocalizerMinRadiusM);
/// Step of the coarse angle scan grid (degrees).
constexpr double kScanStepDeg = 3.0;
/// Allow angles slightly outside [0, 180] (gesture overshoot).
constexpr double kAngleMarginDeg = 25.0;
static_assert(kScanStepDeg > 0.0 &&
                  kScanStepDeg <= 180.0 + 2.0 * kAngleMarginDeg,
              "the scan needs at least one bracket");
/// When the two iso-delay curves do not intersect exactly (model mismatch
/// on a real head), accept the closest-approach point if the remaining
/// path-length discrepancy is below this (meters); otherwise report
/// failure.
constexpr double kApproximateResidualM = 0.02;
/// Finite-difference steps of angleGradient: a head axis and the fix's
/// radius move by 1e-7 m, and its angle by 1e-5 degrees, which moves the
/// phone ~6e-8 m at its typical 0.35 m.
constexpr double kHeadAxisStepM = 1e-7;
constexpr double kRadiusStepM = 1e-7;
constexpr double kAngleStepDeg = 1e-5;
/// angleGradient's singularity test: J is near singular when the gradients
/// of L and R in the plane are closer to parallel than this sine (1e-3,
/// about 0.06 degrees).
constexpr double kMinCrossingSine = 1e-3;

double pathLength(const geo::HeadBoundary& head, geo::Vec2 p, geo::Ear ear) {
  return geo::nearFieldPath(head, p, ear).length;
}

/// True when the residual changes sign between two defined samples.
bool signChange(double f0, double f1) {
  return !std::isnan(f0) && !std::isnan(f1) && (f0 < 0) != (f1 < 0);
}

/// The coarse angle scan: kScanCount angles from -margin in kScanStepDeg
/// increments, the last one no farther than 180 + margin.
constexpr double kScanLo = -kAngleMarginDeg;
constexpr int kScanCount =
    static_cast<int>((180.0 + 2.0 * kAngleMarginDeg + 1e-9) / kScanStepDeg) +
    1;
double scanAngle(int k) { return kScanLo + kScanStepDeg * k; }
geo::Vec2 scanDirection(int k) {
  return geo::directionFromAzimuthDeg(scanAngle(k));
}

}  // namespace

PerturbedHeads perturbedHeads(const geo::HeadBoundary& head) {
  const double a = head.a(), b = head.b(), c = head.c(), h = kHeadAxisStepM;
  const std::size_t n = head.size();
  return {geo::HeadBoundary(a + h, b, c, n), geo::HeadBoundary(a, b + h, c, n),
          geo::HeadBoundary(a, b, c + h, n)};
}

Localizer::Localizer(const geo::HeadBoundary& head) : head_(head) {
  UNIQ_REQUIRE(kLocalizerMinRadiusM > head.a() &&
                   kLocalizerMinRadiusM > head.b() &&
                   kLocalizerMinRadiusM > head.c(),
               "minRadius must clear the head");
}

std::optional<double> Localizer::radiusForLeftPath(
    geo::Vec2 dir, double targetLen, const std::optional<double>& hint) const {
  // dir * r is exactly pointFromPolarDeg(angleDeg, r) with the sin/cos
  // hoisted out of the root-finder's inner loop.
  const auto f = [&](double r) {
    return pathLength(head_, dir * r, geo::Ear::kLeft) - targetLen;
  };
  optim::RootOptions ropts;
  ropts.xTolerance = 1e-5;
  // Warm start: the root moves slowly across the angle scan, so a narrow
  // window around the previous angle's root usually brackets it and Brent
  // converges in a fraction of the full-range iterations. Monotonicity of
  // the path length in r (the source is well outside the head) makes a
  // bracketing window sufficient — there is only one root to find.
  if (hint) {
    constexpr double kWindowM = 0.03;
    const double lo = std::max(kLocalizerMinRadiusM, *hint - kWindowM);
    const double hi = std::min(kMaxRadiusM, *hint + kWindowM);
    if (lo < hi) {
      const double fLo = f(lo);
      if (fLo <= 0.0) {
        const double fHi = f(hi);
        if (fHi >= 0.0) return optim::brentBracketed(f, lo, hi, fLo, fHi, ropts);
      }
    }
  }
  const double fLo = f(kLocalizerMinRadiusM);
  if (fLo > 0.0) return std::nullopt;
  const double fHi = f(kMaxRadiusM);
  if (fHi < 0.0) return std::nullopt;
  return optim::brentBracketed(f, kLocalizerMinRadiusM, kMaxRadiusM,
                               fLo, fHi, ropts);
}

double Localizer::rightPathResidual(geo::Vec2 dir, double targetLenLeft,
                                    double targetLenRight,
                                    std::optional<double>* warmRadius) const {
  const auto r = radiusForLeftPath(dir, targetLenLeft,
                                   warmRadius ? *warmRadius : std::nullopt);
  if (!r) return std::numeric_limits<double>::quiet_NaN();
  if (warmRadius) *warmRadius = *r;
  return pathLength(head_, dir * *r, geo::Ear::kRight) - targetLenRight;
}

std::optional<PolarFix> Localizer::refineBracket(double a, double b,
                                                 double fa, double fb,
                                                 double targetLenLeft,
                                                 double targetLenRight) const {
  static obs::Counter& undefined =
      obs::registry().counter("localizer.refine.undefined");
  // Brent on the angle, each trial's radius solve warm-started from the
  // previous trial's. The residual is defined only where the left-ear
  // iso-delay curve exists; a trial outside it reports 0, which ends Brent
  // at once, and the refinement then fails.
  std::optional<double> warm;
  double lastAngle = std::numeric_limits<double>::quiet_NaN();
  bool defined = true;
  const auto f = [&](double angleDeg) {
    lastAngle = angleDeg;
    const double res =
        rightPathResidual(geo::directionFromAzimuthDeg(angleDeg),
                          targetLenLeft, targetLenRight, &warm);
    if (!std::isnan(res)) return res;
    defined = false;
    return 0.0;
  };
  optim::RootOptions ropts;
  ropts.xTolerance = 1e-6;
  const double angleRoot = optim::brentBracketed(f, a, b, fa, fb, ropts);
  if (!defined) {
    undefined.inc();
    return std::nullopt;
  }
  // Brent usually returns its last trial, whose radius is already solved.
  if (angleRoot == lastAngle) return PolarFix{angleRoot, *warm};
  const auto r = radiusForLeftPath(geo::directionFromAzimuthDeg(angleRoot),
                                   targetLenLeft, warm);
  if (!r) return std::nullopt;
  return PolarFix{angleRoot, *r};
}

std::vector<PolarFix> Localizer::locateAll(double delayLeftSec,
                                           double delayRightSec) const {
  UNIQ_REQUIRE(delayLeftSec > 0 && delayRightSec > 0, "delays must be > 0");
  const double dL = delayLeftSec * kSpeedOfSound;
  const double dR = delayRightSec * kSpeedOfSound;
  std::vector<PolarFix> fixes;
  // Coarse scan for sign changes of the right-ear residual, each refined in
  // place.
  double prevRes = rightPathResidual(scanDirection(0), dL, dR);
  for (int k = 1; k < kScanCount; ++k) {
    const double res = rightPathResidual(scanDirection(k), dL, dR);
    if (signChange(prevRes, res)) {
      if (const auto fix = refineBracket(scanAngle(k - 1), scanAngle(k),
                                         prevRes, res, dL, dR))
        fixes.push_back(*fix);
    }
    prevRes = res;
  }
  return fixes;
}

std::optional<PolarFix> Localizer::locate(double delayLeftSec,
                                          double delayRightSec,
                                          double imuAngleDeg) const {
  UNIQ_REQUIRE(delayLeftSec > 0 && delayRightSec > 0, "delays must be > 0");
  const double dL = delayLeftSec * kSpeedOfSound;
  const double dR = delayRightSec * kSpeedOfSound;
  // The fix nearest the IMU angle among locateAll's, found by walking the
  // scan grid outward from the bracket holding the IMU angle: a root lies
  // strictly inside its bracket, so once both unvisited edges are farther
  // from the IMU angle than the best root, nothing left can beat it. Ties
  // go to the lower angle, as in a full ascending scan. Grid residuals and
  // refinements depend only on their angles, so the fix is the very one
  // locateAll finds.
  const int last = kScanCount - 1;
  const double pos = (imuAngleDeg - kScanLo) / kScanStepDeg;
  int down = pos >= last - 1 ? last - 1 : pos > 0 ? static_cast<int>(pos) : 0;
  int up = down + 1;
  double resDown = rightPathResidual(scanDirection(down), dL, dR);
  double resUp = rightPathResidual(scanDirection(up), dL, dR);

  std::optional<PolarFix> best;
  double bestErr = std::numeric_limits<double>::infinity();
  const auto consider = [&](int k, double fLo, double fHi) {
    if (!signChange(fLo, fHi)) return;
    const auto fix =
        refineBracket(scanAngle(k), scanAngle(k + 1), fLo, fHi, dL, dR);
    if (!fix) return;
    const double err = std::fabs(fix->angleDeg - imuAngleDeg);
    if (!best || err < bestErr ||
        (err == bestErr && fix->angleDeg < best->angleDeg)) {
      bestErr = err;
      best = fix;
    }
  };
  consider(down, resDown, resUp);
  while (down > 0 || up < last) {
    const double downGap = imuAngleDeg - scanAngle(down);
    const double upGap = scanAngle(up) - imuAngleDeg;
    const bool goDown = up == last || (down > 0 && downGap <= upGap);
    // Negated so a NaN IMU angle ends the walk.
    if (!((goDown ? downGap : upGap) <= bestErr)) break;
    if (goDown) {
      const double res = rightPathResidual(scanDirection(--down), dL, dR);
      consider(down, res, resDown);
      resDown = res;
    } else {
      const double res = rightPathResidual(scanDirection(++up), dL, dR);
      consider(up - 1, resUp, res);
      resUp = res;
    }
  }
  if (best) return best;

  // No exact intersection (slight model mismatch): fall back to the angle
  // of closest approach between the two iso-delay curves.
  static obs::Counter& scans =
      obs::registry().counter("localizer.fallback.scans");
  static obs::Counter& unlocalized =
      obs::registry().counter("localizer.fallback.unlocalized");
  scans.inc();
  const double lo = -kAngleMarginDeg;
  const double hi = 180.0 + kAngleMarginDeg;
  double bestAngle = 0.0;
  double bestAbs = std::numeric_limits<double>::infinity();
  const double fineStep = kScanStepDeg / 3.0;
  std::optional<double> warm;
  for (double ang = lo; ang <= hi + 1e-9; ang += fineStep) {
    const double res =
        rightPathResidual(geo::directionFromAzimuthDeg(ang), dL, dR, &warm);
    if (std::isnan(res)) continue;
    if (std::fabs(res) < bestAbs) {
      bestAbs = std::fabs(res);
      bestAngle = ang;
    }
  }
  const auto r = bestAbs > kApproximateResidualM
                     ? std::nullopt
                     : radiusForLeftPath(
                           geo::directionFromAzimuthDeg(bestAngle), dL, warm);
  if (!r) {
    unlocalized.inc();
    return std::nullopt;
  }
  return PolarFix{bestAngle, *r, /*approximate=*/true};
}

std::optional<std::array<double, 3>> Localizer::angleGradient(
    const PolarFix& fix, const PerturbedHeads& perturbed) const {
  if (fix.approximate) return std::nullopt;
  const geo::Vec2 p = geo::pointFromPolarDeg(fix.angleDeg, fix.radiusM);
  const auto lengths = [&](const geo::HeadBoundary& head, geo::Vec2 at) {
    return std::array<double, 2>{pathLength(head, at, geo::Ear::kLeft),
                                 pathLength(head, at, geo::Ear::kRight)};
  };
  const auto base = lengths(head_, p);
  const auto atAngle = lengths(
      head_, geo::pointFromPolarDeg(fix.angleDeg + kAngleStepDeg, fix.radiusM));
  const auto atRadius = lengths(
      head_, geo::pointFromPolarDeg(fix.angleDeg, fix.radiusM + kRadiusStepM));
  // J = d(L, R)/d(theta, r), theta in degrees; row k is ear k.
  double dTheta[2], dR[2];
  for (int k = 0; k < 2; ++k) {
    dTheta[k] = (atAngle[k] - base[k]) / kAngleStepDeg;
    dR[k] = (atRadius[k] - base[k]) / kRadiusStepM;
  }
  const double det = dTheta[0] * dR[1] - dR[0] * dTheta[1];
  // The same determinant with theta as arc length (m), where each row is a
  // path-length gradient in the plane of norm ~1: |det| over the norms is
  // the sine of the angle at which the two iso-delay curves cross.
  const double arcPerDeg = fix.radiusM * kPi / 180.0;
  const double normL = std::hypot(dTheta[0] / arcPerDeg, dR[0]);
  const double normR = std::hypot(dTheta[1] / arcPerDeg, dR[1]);
  if (!(std::fabs(det / arcPerDeg) > kMinCrossingSine * normL * normR))
    return std::nullopt;
  // d theta / dE_j = -(J^-1 d(L, R)/dE_j)_theta
  //                = -(dR_R * dL/dE_j - dR_L * dR/dE_j) / det.
  std::array<double, 3> gradient{};
  for (std::size_t j = 0; j < 3; ++j) {
    const auto moved = lengths(perturbed[j], p);
    const double dLdE = (moved[0] - base[0]) / kHeadAxisStepM;
    const double dRdE = (moved[1] - base[1]) / kHeadAxisStepM;
    gradient[j] = -(dR[1] * dLdE - dR[0] * dRdE) / det;
  }
  return gradient;
}

}  // namespace uniq::core
