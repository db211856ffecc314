#include "core/beamformer.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.h"
#include "common/math_util.h"
#include "dsp/fft_plan.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"

namespace uniq::core {

namespace {

using Cx = dsp::Complex;

/// Half-spectrum FFT (bins 0..n/2) of the first n samples of a real
/// signal, zero-padded to n.
std::vector<Cx> paddedRfft(const dsp::FftPlan& plan,
                           const std::vector<double>& x) {
  return plan.rfft(
      std::span<const double>(x).first(std::min(x.size(), plan.size())));
}

/// Solve the 2x2 Hermitian system (R + dI) w = h.
void solve2x2(const Cx r00, const Cx r01, const Cx r11, double loading,
              const Cx h0, const Cx h1, Cx& w0, Cx& w1) {
  const Cx a = r00 + loading;
  const Cx d = r11 + loading;
  const Cx b = r01;
  const Cx det = a * d - b * std::conj(b);
  w0 = (d * h0 - b * h1) / det;
  w1 = (a * h1 - std::conj(b) * h0) / det;
}

}  // namespace

BinauralBeamformer::BinauralBeamformer(const FarFieldTable& table,
                                       Options opts)
    : table_(table), opts_(opts) {
  UNIQ_REQUIRE(table_.byDegree.size() == 181, "table must cover 0..180");
  UNIQ_REQUIRE(dsp::isPowerOfTwo(opts_.frameLength) &&
                   opts_.frameLength >= 256,
               "frameLength must be a power of two >= 256");
  UNIQ_REQUIRE(opts_.diagonalLoading > 0, "diagonal loading must be > 0");
  UNIQ_REQUIRE(opts_.bandLoHz < opts_.bandHiHz, "bad band");
}

std::vector<double> BinauralBeamformer::steer(
    const std::vector<double>& leftRecording,
    const std::vector<double>& rightRecording, double thetaDeg) const {
  UNIQ_REQUIRE(!leftRecording.empty() && !rightRecording.empty(),
               "empty input");
  const double fs = table_.sampleRate;
  const std::size_t n = opts_.frameLength;
  const std::size_t hop = n / 2;
  const std::size_t total =
      std::min(leftRecording.size(), rightRecording.size());

  const auto plan = dsp::fftPlan(n);
  const auto& tmpl = table_.at(thetaDeg);
  const auto hl = paddedRfft(*plan, tmpl.left);
  const auto hr = paddedRfft(*plan, tmpl.right);

  const auto window = dsp::makeWindow(dsp::WindowType::kHann, n);

  // Frame the two ear signals (Hann analysis, 50% overlap — COLA).
  std::vector<std::size_t> starts;
  if (total <= n) {
    starts.push_back(0);
  } else {
    for (std::size_t s = 0; s + n <= total + hop; s += hop) starts.push_back(s);
  }

  // Half-spectrum frames: the signals are real, so bins above n/2 are the
  // conjugate mirror and never need to be materialized.
  std::vector<std::vector<Cx>> framesL, framesR;
  framesL.reserve(starts.size());
  framesR.reserve(starts.size());
  std::vector<double> tl(n), tr(n);
  for (std::size_t s : starts) {
    std::fill(tl.begin(), tl.end(), 0.0);
    std::fill(tr.begin(), tr.end(), 0.0);
    for (std::size_t i = 0; i < n && s + i < total; ++i) {
      tl[i] = leftRecording[s + i] * window[i];
      tr[i] = rightRecording[s + i] * window[i];
    }
    framesL.push_back(plan->rfft(tl));
    framesR.push_back(plan->rfft(tr));
  }

  // Per-bin MPDR weights from the frame-averaged 2x2 covariance.
  const std::size_t bLo = dsp::frequencyToBin(opts_.bandLoHz, n, fs);
  const std::size_t bHi =
      std::min(dsp::frequencyToBin(opts_.bandHiHz, n, fs), n / 2);
  std::vector<Cx> w0(n / 2 + 1, Cx(0, 0)), w1(n / 2 + 1, Cx(0, 0));
  const double kf = static_cast<double>(framesL.size());
  for (std::size_t k = bLo; k <= bHi; ++k) {
    Cx r00(0, 0), r01(0, 0), r11(0, 0);
    for (std::size_t f = 0; f < framesL.size(); ++f) {
      const Cx l = framesL[f][k];
      const Cx r = framesR[f][k];
      r00 += l * std::conj(l);
      r01 += l * std::conj(r);
      r11 += r * std::conj(r);
    }
    r00 /= kf;
    r01 /= kf;
    r11 /= kf;
    const double loading =
        opts_.diagonalLoading * 0.5 * (r00.real() + r11.real()) + 1e-30;
    Cx a0, a1;
    solve2x2(r00, r01, r11, loading, hl[k], hr[k], a0, a1);
    // Distortionless constraint: h^H w = 1.
    const Cx denom = std::conj(hl[k]) * a0 + std::conj(hr[k]) * a1;
    if (std::abs(denom) < 1e-18) continue;
    w0[k] = a0 / denom;
    w1[k] = a1 / denom;
  }

  // Apply per frame and overlap-add (Hann at 50% overlap sums to 1).
  std::vector<double> out(total, 0.0);
  std::vector<Cx> fy(n / 2 + 1);
  for (std::size_t f = 0; f < framesL.size(); ++f) {
    std::fill(fy.begin(), fy.end(), Cx(0, 0));
    for (std::size_t k = bLo; k <= bHi; ++k) {
      fy[k] = std::conj(w0[k]) * framesL[f][k] +
              std::conj(w1[k]) * framesR[f][k];
    }
    const auto time = plan->irfft(fy);
    const std::size_t s = starts[f];
    for (std::size_t i = 0; i < n && s + i < total; ++i)
      out[s + i] += time[i];
  }
  return out;
}

double BinauralBeamformer::relativeResponse(double steerDeg,
                                            double probeDeg) const {
  const double fs = table_.sampleRate;
  const std::size_t n = opts_.frameLength;
  const auto plan = dsp::fftPlan(n);
  const auto& steerT = table_.at(steerDeg);
  const auto& probeT = table_.at(probeDeg);
  const auto sl = paddedRfft(*plan, steerT.left);
  const auto sr = paddedRfft(*plan, steerT.right);
  const auto pl = paddedRfft(*plan, probeT.left);
  const auto pr = paddedRfft(*plan, probeT.right);
  const std::size_t bLo = dsp::frequencyToBin(opts_.bandLoHz, n, fs);
  const std::size_t bHi =
      std::min(dsp::frequencyToBin(opts_.bandHiHz, n, fs), n / 2);
  double num = 0.0, denS = 0.0, denP = 0.0;
  for (std::size_t k = bLo; k <= bHi; ++k) {
    const Cx dotSP = std::conj(sl[k]) * pl[k] + std::conj(sr[k]) * pr[k];
    num += std::norm(dotSP);
    const double ns = std::norm(sl[k]) + std::norm(sr[k]);
    const double np = std::norm(pl[k]) + std::norm(pr[k]);
    denS += ns * ns;
    denP += np * np;
  }
  const double den = std::sqrt(denS * denP);
  return den > 1e-30 ? num / den : 0.0;
}

}  // namespace uniq::core
