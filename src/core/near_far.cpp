#include "core/near_far.h"

#include <algorithm>
#include <cmath>

#include "common/aligned.h"
#include "common/constants.h"
#include "common/error.h"
#include "common/math_util.h"
#include "dsp/fractional_delay.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "obs/trace.h"

namespace uniq::core {

const head::Hrir& FarFieldTable::at(double thetaDeg) const {
  UNIQ_REQUIRE(!byDegree.empty(), "empty far-field table");
  const auto idx = static_cast<std::size_t>(clamp(
      std::lround(thetaDeg), 0.0, static_cast<double>(byDegree.size() - 1)));
  return byDegree[idx];
}

NearFarConverter::NearFarConverter(Options opts) : opts_(opts) {}

FarFieldTable NearFarConverter::convert(const NearFieldTable& nearTable) const {
  UNIQ_SPAN("nearfar.convert");
  UNIQ_REQUIRE(nearTable.byDegree.size() == 181, "near table must cover 0-180");
  const auto& E = nearTable.headParams;
  const geo::HeadBoundary boundary(E.a, E.b, E.c, kTableBoundaryResolution);
  const double fs = nearTable.sampleRate;
  const double radius = nearTable.medianRadiusM;

  FarFieldTable far;
  far.sampleRate = fs;
  far.headParams = E;
  far.byDegree.resize(181);
  far.tapLeftSamples.resize(181);
  far.tapRightSamples.resize(181);

  // Precompute measurement-circle positions for all near-table angles, each
  // ear's near-field attenuation there, and each near-field channel moved
  // from its own first tap to kFarFieldAlignSample: none depends on the
  // far-field degree. The aligned channels are kHrirLength samples each
  // (zero past a shorter input), ear-major in one block of the thread
  // scratch arena.
  const std::size_t len = kHrirLength;
  auto& arena = common::simdScratch();
  const common::ArenaScope scope(arena);
  double* const alignedLeft = arena.allocDoubles(2 * 181 * len);
  double* const alignedRight = alignedLeft + 181 * len;
  std::vector<geo::Vec2> positions(181);
  std::vector<double> ampNearLeft(181), ampNearRight(181);
  for (int psi = 0; psi <= 180; ++psi) {
    positions[psi] = geo::pointFromPolarDeg(static_cast<double>(psi), radius);
    for (geo::Ear ear : {geo::Ear::kLeft, geo::Ear::kRight}) {
      const bool left = ear == geo::Ear::kLeft;
      const auto nearPath = geo::nearFieldPath(boundary, positions[psi], ear);
      (left ? ampNearLeft : ampNearRight)[psi] =
          (1.0 / std::max(nearPath.length, 0.05)) *
          std::exp(-kArcAttenuationNepersPerMeter * nearPath.arcLength);
      const auto& src = left ? nearTable.byDegree[psi].left
                             : nearTable.byDegree[psi].right;
      const double tap = (left ? nearTable.tapLeftSamples
                               : nearTable.tapRightSamples)[psi];
      const auto shifted = dsp::fractionalShift(
          src, kFarFieldAlignSample - tap, dsp::kDefaultSincHalfWidth, len);
      std::copy(shifted.begin(), shifted.end(),
                (left ? alignedLeft : alignedRight) +
                    static_cast<std::size_t>(psi) * len);
    }
  }

  for (int deg = 0; deg <= 180; ++deg) {
    const double theta = static_cast<double>(deg);
    const geo::Vec2 d = -geo::directionFromAzimuthDeg(theta);
    const geo::Vec2 e = d.perp();

    // Crown point Q: boundary point facing the incoming wave head-on.
    const double crownIdx = boundary.indexWithNormal(-d);
    const double sQ = dot(boundary.pointAt(crownIdx), e);

    head::Hrir hrir;
    hrir.sampleRate = fs;
    hrir.left.assign(len, 0.0);
    hrir.right.assign(len, 0.0);

    const auto pathL = geo::farFieldPath(boundary, d, geo::Ear::kLeft);
    const auto pathR = geo::farFieldPath(boundary, d, geo::Ear::kRight);
    const double dMin = std::min(pathL.length, pathR.length);
    const double tapLFar =
        kFarFieldAlignSample + (pathL.length - dMin) / kSpeedOfSound * fs;
    const double tapRFar =
        kFarFieldAlignSample + (pathR.length - dMin) / kSpeedOfSound * fs;

    for (geo::Ear ear : {geo::Ear::kLeft, geo::Ear::kRight}) {
      const auto& path = ear == geo::Ear::kLeft ? pathL : pathR;
      auto& channel = ear == geo::Ear::kLeft ? hrir.left : hrir.right;
      const double* aligned =
          ear == geo::Ear::kLeft ? alignedLeft : alignedRight;
      const auto& ampNear =
          ear == geo::Ear::kLeft ? ampNearLeft : ampNearRight;
      // Adds the aligned channel at near-table angle `psi`, scaled. The
      // zero tail of a channel shorter than kHrirLength adds +0.0 to sums
      // that are never -0.0, so it changes no bit.
      const auto addAligned = [&](int psi, double weight) {
        const double* src = aligned + static_cast<std::size_t>(psi) * len;
        for (std::size_t i = 0; i < len; ++i) channel[i] += weight * src[i];
      };

      // Impact-parameter band of rays feeding this ear: between the crown
      // ray and the ear's grazing/direct ray.
      const double sEar = path.diffracted ? dot(path.tangentPoint, e)
                                          : dot(earPosition(boundary, ear), e);
      const double sLo = std::min(sQ, sEar);
      const double sHi = std::max(sQ, sEar);
      // Contributions are weighted toward the ray that actually reaches the
      // ear (impact parameter sEar); rays near the crown graze away from it
      // and carry less of this ear's far-field character. The weighting
      // keeps the averaged response angle-specific enough to preserve
      // front/back spectral cues.
      const double sigma =
          std::max((sHi - sLo) / opts_.raySigmaDivisor, 1e-4);
      const double ampFar =
          std::exp(-kArcAttenuationNepersPerMeter * path.arcLength);

      // Each near-field contribution is rescaled by the model's far/near
      // attenuation ratio. This converts the geometric (distance + creep)
      // part of the level to far-field conditions while PRESERVING the
      // measured pinna gain — the interaural level detail that
      // distinguishes front from back for an application like binaural AoA.
      double weightSum = 0.0;
      for (int psi = 0; psi <= 180; ++psi) {
        const geo::Vec2 p = positions[psi];
        if (dot(d, p) >= 0.0) continue;  // downstream of the head center
        const double s = dot(p, e);
        if (s < sLo || s > sHi) continue;
        const double w = std::exp(-0.5 * square((s - sEar) / sigma));
        addAligned(psi, w * ampFar / ampNear[psi]);
        weightSum += w;
      }
      if (weightSum < 1e-12) {
        // Sparse-coverage fallback: use the near-field response at the same
        // polar angle. Also taken at degree 0's right ear, whose one
        // candidate (psi = 0) sits on the band's crown edge.
        addAligned(deg, ampFar / ampNear[deg]);
        weightSum = 1.0;
      }
      for (auto& v : channel) v /= weightSum;

      const double targetTap = ear == geo::Ear::kLeft ? tapLFar : tapRFar;
      channel = dsp::fractionalShift(channel, targetTap - kFarFieldAlignSample);
    }

    far.tapLeftSamples[deg] = tapLFar;
    far.tapRightSamples[deg] = tapRFar;
    far.byDegree[deg] = std::move(hrir);
  }
  return far;
}

FarFieldTable farTableFromDatabase(const head::HrtfDatabase& db) {
  const auto& boundary = db.boundary();
  const double fs = db.options().sampleRate;
  FarFieldTable far;
  far.sampleRate = fs;
  far.headParams = db.subject().headParams;
  far.byDegree.resize(181);
  far.tapLeftSamples.resize(181);
  far.tapRightSamples.resize(181);
  for (int deg = 0; deg <= 180; ++deg) {
    const double theta = static_cast<double>(deg);
    const geo::Vec2 d = -geo::directionFromAzimuthDeg(theta);
    const auto pathL = geo::farFieldPath(boundary, d, geo::Ear::kLeft);
    const auto pathR = geo::farFieldPath(boundary, d, geo::Ear::kRight);
    const double dMin = std::min(pathL.length, pathR.length);
    const double tapL =
        kFarFieldAlignSample + (pathL.length - dMin) / kSpeedOfSound * fs;
    const double tapR =
        kFarFieldAlignSample + (pathR.length - dMin) / kSpeedOfSound * fs;
    auto hrir = db.farField(theta);
    // The database anchors taps at leadSec + path/v; move the earlier ear's
    // tap to kFarFieldAlignSample while preserving the interaural delay
    // exactly.
    const double currentMinTap =
        (db.options().farFieldLeadSec + dMin / kSpeedOfSound) * fs;
    const double shift = kFarFieldAlignSample - currentMinTap;
    hrir.left = dsp::fractionalShift(hrir.left, shift);
    hrir.right = dsp::fractionalShift(hrir.right, shift);
    hrir.left.resize(kHrirLength, 0.0);
    hrir.right.resize(kHrirLength, 0.0);
    far.tapLeftSamples[deg] = tapL;
    far.tapRightSamples[deg] = tapR;
    far.byDegree[deg] = std::move(hrir);
  }
  return far;
}

NearFieldTable nearTableFromDatabase(const head::HrtfDatabase& db,
                                     double radiusM) {
  UNIQ_REQUIRE(radiusM > 0.0, "radius must be positive");
  const auto& boundary = db.boundary();
  const double fs = db.options().sampleRate;
  NearFieldTable table;
  table.sampleRate = fs;
  table.headParams = db.subject().headParams;
  table.medianRadiusM = radiusM;
  table.byDegree.resize(181);
  table.tapLeftSamples.resize(181);
  table.tapRightSamples.resize(181);
  for (int deg = 0; deg <= 180; ++deg) {
    const double theta = static_cast<double>(deg);
    const geo::Vec2 p = geo::pointFromPolarDeg(theta, radiusM);
    const auto pathL = geo::nearFieldPath(boundary, p, geo::Ear::kLeft);
    const auto pathR = geo::nearFieldPath(boundary, p, geo::Ear::kRight);
    const double dMin = std::min(pathL.length, pathR.length);
    auto hrir = db.nearField(theta, radiusM);
    // The database's time origin is the source emission instant; move the
    // earlier ear's tap to kNearFieldAlignSample, preserving the interaural
    // delay.
    const double shift = kNearFieldAlignSample - dMin / kSpeedOfSound * fs;
    hrir.left = dsp::fractionalShift(hrir.left, shift);
    hrir.right = dsp::fractionalShift(hrir.right, shift);
    hrir.left.resize(kHrirLength, 0.0);
    hrir.right.resize(kHrirLength, 0.0);
    table.tapLeftSamples[deg] =
        kNearFieldAlignSample + (pathL.length - dMin) / kSpeedOfSound * fs;
    table.tapRightSamples[deg] =
        kNearFieldAlignSample + (pathR.length - dMin) / kSpeedOfSound * fs;
    table.byDegree[deg] = std::move(hrir);
    // Synthesized at every degree: full coverage, no interpolation gaps.
    table.sourceAnglesDeg.push_back(theta);
  }
  return table;
}

}  // namespace uniq::core
