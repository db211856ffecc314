#include "core/near_field_hrtf.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "dsp/fractional_delay.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::core {

const head::Hrir& NearFieldTable::at(double thetaDeg) const {
  UNIQ_REQUIRE(!byDegree.empty(), "empty near-field table");
  const auto idx = static_cast<std::size_t>(
      clamp(std::lround(thetaDeg), 0.0, static_cast<double>(byDegree.size() - 1)));
  return byDegree[idx];
}

NearFieldHrtfBuilder::NearFieldHrtfBuilder(Options opts) : opts_(opts) {}

namespace {

/// Model level correction: 0 keeps the measured interaural level
/// difference, 1 forces the model's; in between blends in the
/// log-amplitude domain.
constexpr double kAmplitudeBlend = 0.5;
static_assert(kAmplitudeBlend >= 0.0 && kAmplitudeBlend <= 1.0);

/// One usable calibration stop, with each ear's channel re-anchored so its
/// own first tap sits at kNearFieldAlignSample (per-ear alignment makes linear
/// interpolation between neighboring angles meaningful — the paper aligns
/// HRIRs "carefully along their first taps before the interpolation").
struct AlignedStop {
  double angleDeg;
  double radiusM;
  std::vector<double> left;   // first tap at kNearFieldAlignSample
  std::vector<double> right;  // first tap at kNearFieldAlignSample
  double energyLeft;
  double energyRight;
};

std::vector<double> alignChannel(const std::vector<double>& channel,
                                 double tapSeconds, double sampleRate) {
  const double shift = kNearFieldAlignSample - tapSeconds * sampleRate;
  auto shifted = dsp::fractionalShift(channel, shift);
  shifted.resize(kHrirLength, 0.0);
  return shifted;
}

}  // namespace

NearFieldTable NearFieldHrtfBuilder::build(
    const std::vector<FusedStop>& stops,
    const std::vector<BinauralChannel>& channels,
    const head::HeadParameters& headParams) const {
  UNIQ_SPAN("nearfield.build");
  UNIQ_REQUIRE(stops.size() == channels.size(),
               "stops and channels must be parallel");

  std::vector<AlignedStop> usable;
  double sampleRate = 0.0;
  std::vector<double> radii;
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const auto& stop = stops[i];
    const auto& ch = channels[i];
    if (!stop.localized || !ch.firstTapLeftSec || !ch.firstTapRightSec)
      continue;
    sampleRate = ch.sampleRate;
    AlignedStop a;
    a.angleDeg = stop.angleDeg;
    a.radiusM = stop.radiusM;
    a.left = alignChannel(ch.left, *ch.firstTapLeftSec, ch.sampleRate);
    a.right = alignChannel(ch.right, *ch.firstTapRightSec, ch.sampleRate);
    a.energyLeft = head::channelEnergy(a.left);
    a.energyRight = head::channelEnergy(a.right);
    if (a.energyLeft < 1e-12 || a.energyRight < 1e-12) continue;
    usable.push_back(std::move(a));
    radii.push_back(stop.radiusM);
  }
  UNIQ_REQUIRE(usable.size() >= 4, "too few usable stops for interpolation");
  obs::registry().gauge("nearfield.usable_stops").set(
      static_cast<double>(usable.size()));

  std::sort(usable.begin(), usable.end(),
            [](const AlignedStop& x, const AlignedStop& y) {
              return x.angleDeg < y.angleDeg;
            });
  std::sort(radii.begin(), radii.end());
  const double medianRadius = radii[radii.size() / 2];

  NearFieldTable table;
  table.sampleRate = sampleRate;
  table.headParams = headParams;
  table.medianRadiusM = medianRadius;
  for (const auto& a : usable) table.sourceAnglesDeg.push_back(a.angleDeg);
  table.byDegree.resize(181);
  table.tapLeftSamples.resize(181);
  table.tapRightSamples.resize(181);

  const geo::HeadBoundary boundary(headParams.a, headParams.b, headParams.c,
                                   kTableBoundaryResolution);

  // Each degree reads shared immutable state (`usable`, the boundary) and
  // writes only its own table entries, so the 181 angles fan out across the
  // pool with thread-count-independent results.
  common::parallelFor(0, 181, [&](std::size_t degIndex) {
    const int deg = static_cast<int>(degIndex);
    // Bracketing measurements (clamped at the sweep ends).
    const double g = static_cast<double>(deg);
    std::size_t hi = 0;
    while (hi < usable.size() && usable[hi].angleDeg < g) ++hi;
    std::size_t lo;
    double w;  // weight of `hi`
    if (hi == 0) {
      lo = hi = 0;
      w = 0.0;
    } else if (hi == usable.size()) {
      lo = hi = usable.size() - 1;
      w = 0.0;
    } else {
      lo = hi - 1;
      const double span = usable[hi].angleDeg - usable[lo].angleDeg;
      w = span > 1e-9 ? (g - usable[lo].angleDeg) / span : 0.0;
    }

    head::Hrir hrir;
    hrir.sampleRate = sampleRate;
    hrir.left.resize(kHrirLength);
    hrir.right.resize(kHrirLength);
    for (std::size_t s = 0; s < kHrirLength; ++s) {
      hrir.left[s] = lerp(usable[lo].left[s], usable[hi].left[s], w);
      hrir.right[s] = lerp(usable[lo].right[s], usable[hi].right[s], w);
    }

    // Model-expected first-tap delays at this angle.
    const geo::Vec2 p = geo::pointFromPolarDeg(g, medianRadius);
    const auto pathL = geo::nearFieldPath(boundary, p, geo::Ear::kLeft);
    const auto pathR = geo::nearFieldPath(boundary, p, geo::Ear::kRight);
    const double dMin = std::min(pathL.length, pathR.length);
    const double tapL = kNearFieldAlignSample +
                        (pathL.length - dMin) / kSpeedOfSound * sampleRate;
    const double tapR = kNearFieldAlignSample +
                        (pathR.length - dMin) / kSpeedOfSound * sampleRate;

    if (opts_.modelCorrection) {
      // Re-impose the model's interaural time difference: both channels
      // currently have their first taps at kNearFieldAlignSample.
      hrir.left = dsp::fractionalShift(hrir.left, tapL - kNearFieldAlignSample);
      hrir.right =
          dsp::fractionalShift(hrir.right, tapR - kNearFieldAlignSample);

      // Blend the measured interaural level difference toward the model's.
      const double eL = head::channelEnergy(hrir.left);
      const double eR = head::channelEnergy(hrir.right);
      if (eL > 1e-12 && eR > 1e-12) {
        const double ampL =
            (1.0 / std::max(pathL.length, 0.05)) *
            std::exp(-kArcAttenuationNepersPerMeter * pathL.arcLength);
        const double ampR =
            (1.0 / std::max(pathR.length, 0.05)) *
            std::exp(-kArcAttenuationNepersPerMeter * pathR.arcLength);
        const double measuredIldDb = 10.0 * std::log10(eL / eR);
        const double modelIldDb = 20.0 * std::log10(ampL / ampR);
        const double correctionDb =
            kAmplitudeBlend * (modelIldDb - measuredIldDb);
        const double gain = std::pow(10.0, correctionDb / 40.0);
        for (auto& v : hrir.left) v *= gain;
        for (auto& v : hrir.right) v /= gain;
      }
    }
    // Without correction each ear keeps its per-ear alignment.
    table.tapLeftSamples[deg] =
        opts_.modelCorrection ? tapL : kNearFieldAlignSample;
    table.tapRightSamples[deg] =
        opts_.modelCorrection ? tapR : kNearFieldAlignSample;
    table.byDegree[deg] = std::move(hrir);
  });
  return table;
}

}  // namespace uniq::core
