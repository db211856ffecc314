#include "dsp/fractional_delay.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/kernels/kernels.h"
#include "obs/metrics.h"

namespace uniq::dsp {

namespace {

// Executed-shift counter: one per fractionalShift call, whatever its
// length. The calibration scorecard reads deltas of it as a work count.
obs::Counter& shiftCounter() {
  static obs::Counter& c =
      obs::registry().counter("dsp.fractional_shift.calls");
  return c;
}

/// Blackman-windowed sinc kernel value at offset x (samples), half-width w.
double windowedSinc(double x, int w) {
  if (std::fabs(x) >= w) return 0.0;
  double s;
  if (std::fabs(x) < 1e-12) {
    s = 1.0;
  } else {
    const double px = kPi * x;
    s = std::sin(px) / px;
  }
  // Blackman window over [-w, w].
  const double u = (x + w) / (2.0 * w);  // in [0,1]
  const double win =
      0.42 - 0.5 * std::cos(kTwoPi * u) + 0.08 * std::cos(2 * kTwoPi * u);
  return s * win;
}

}  // namespace

void addFractionalTap(std::span<double> buffer, double delaySamples,
                      double amplitude, int halfWidth) {
  UNIQ_REQUIRE(halfWidth >= 1, "halfWidth must be >= 1");
  if (buffer.empty() || amplitude == 0.0) return;
  const long lo = static_cast<long>(std::ceil(delaySamples)) - halfWidth;
  const long hi = static_cast<long>(std::floor(delaySamples)) + halfWidth;
  const long n = static_cast<long>(buffer.size());
  for (long t = std::max(lo, 0L); t <= std::min(hi, n - 1); ++t) {
    buffer[static_cast<std::size_t>(t)] +=
        amplitude * windowedSinc(static_cast<double>(t) - delaySamples,
                                 halfWidth);
  }
}

std::vector<double> fractionalShift(std::span<const double> signal,
                                    double shiftSamples, int halfWidth) {
  return fractionalShift(signal, shiftSamples, halfWidth, signal.size());
}

std::vector<double> fractionalShift(std::span<const double> signal,
                                    double shiftSamples, int halfWidth,
                                    std::size_t outputLength) {
  UNIQ_REQUIRE(halfWidth >= 1, "halfWidth must be >= 1");
  shiftCounter().inc();
  const long n = static_cast<long>(signal.size());
  std::vector<double> out(outputLength, 0.0);
  // A non-finite shift, or one that moves every sample (and the kernel
  // support around it) past the ends, leaves nothing in range. Decided
  // before any integer cast, which would be undefined for such values.
  if (!std::isfinite(shiftSamples) ||
      std::fabs(shiftSamples) >= static_cast<double>(n + halfWidth))
    return out;

  // out[t] = signal(t - shift). With c0 = ceil(-shift), tap j of output t
  // reads signal[t + c0 - halfWidth + j] at kernel offset
  // frac + halfWidth - j, where frac = -shift - c0 in (-1, 0]: the same
  // for every t, so the 2*halfWidth+1 weights are computed once.
  const long c0 = static_cast<long>(std::ceil(-shiftSamples));
  const double frac = -shiftSamples - static_cast<double>(c0);
  const long taps = 2L * halfWidth + 1;
  std::vector<double> weights(static_cast<std::size_t>(taps));
  for (long j = 0; j < taps; ++j)
    weights[static_cast<std::size_t>(j)] =
        windowedSinc(frac + static_cast<double>(halfWidth - j), halfWidth);

  const long computed = std::min(n, static_cast<long>(out.size()));
  const auto edgeOutput = [&](long t) {
    const long k0 = t + c0 - halfWidth;
    const long jHi = std::min(taps - 1, n - 1 - k0);
    double acc = 0.0;
    for (long j = std::max(0L, -k0); j <= jHi; ++j)
      acc += signal[static_cast<std::size_t>(k0 + j)] *
             weights[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(t)] = acc;
  };
  // Outputs [lo, hi) read all their taps inside the signal: one FIR run
  // on the kernel layer, which sums each in the same order as edgeOutput.
  const long lo = std::clamp(halfWidth - c0, 0L, computed);
  const long hi = std::clamp(n - taps + halfWidth - c0 + 1, lo, computed);
  for (long t = 0; t < lo; ++t) edgeOutput(t);
  if (hi > lo)
    kernels::firFilter(signal.data() + (lo + c0 - halfWidth), weights.data(),
                       static_cast<std::size_t>(taps),
                       static_cast<std::size_t>(hi - lo), out.data() + lo);
  for (long t = hi; t < computed; ++t) edgeOutput(t);
  return out;
}

}  // namespace uniq::dsp
