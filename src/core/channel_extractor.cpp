#include "core/channel_extractor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "dsp/deconvolution.h"
#include "dsp/fft_plan.h"
#include "dsp/peak_picking.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::core {

namespace {

/// Guard window kept before the first tap (hardware ringing).
constexpr double kPreGuardSec = 0.3e-3;

/// Fraction of samples flat at the waveform peak (within 0.5%): the
/// signature a limiter or ADC overdrive leaves. Clean noisy audio touches
/// its peak only a handful of times.
double clipFraction(const std::vector<double>& x) {
  double peak = 0.0;
  for (double v : x) peak = std::max(peak, std::fabs(v));
  if (peak <= 0.0) return 1.0;  // dead channel: worst case
  std::size_t flat = 0;
  for (double v : x)
    if (std::fabs(v) >= 0.995 * peak) ++flat;
  return static_cast<double>(flat) / static_cast<double>(x.size());
}

/// Peak-to-floor ratio (dB) of a deconvolved channel: the peak magnitude
/// over the median absolute sample. Must run before room-reflection
/// windowing zeroes the floor.
double tapSnrDb(const std::vector<double>& h) {
  if (h.empty()) return 0.0;
  double peak = 0.0;
  std::vector<double> mags(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    mags[i] = std::fabs(h[i]);
    peak = std::max(peak, mags[i]);
  }
  std::nth_element(mags.begin(), mags.begin() + mags.size() / 2, mags.end());
  const double floor = mags[mags.size() / 2];
  if (peak <= 0.0) return 0.0;
  return 20.0 * std::log10(peak / std::max(floor, peak * 1e-9));
}

}  // namespace

ChannelExtractor::ChannelExtractor(
    std::vector<dsp::Complex> hardwareResponseEstimate, double sampleRate,
    Options opts)
    : hardwareEstimate_(std::move(hardwareResponseEstimate)),
      sampleRate_(sampleRate),
      opts_(opts) {
  UNIQ_REQUIRE(sampleRate_ > 8000, "sample rate too low");
}

std::shared_ptr<const ChannelExtractor::SourceSpectrum>
ChannelExtractor::sourceSpectrum(const std::vector<double>& source,
                                 std::size_t n) const {
  std::lock_guard<std::mutex> lock(sourceMutex_);
  if (source != source_) {
    source_ = source;
    sourceSpectra_.clear();
  }
  auto& kept = sourceSpectra_[n];
  if (kept) return kept;
  auto fx = dsp::fftPlan(n)->rfft(source);
  // Fold the estimated hardware response into the known transmit chain so
  // the spectral division compensates it in one step.
  if (opts_.compensateHardware && !hardwareEstimate_.empty()) {
    const std::size_t rn = hardwareEstimate_.size();
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const double frac = static_cast<double>(k) / static_cast<double>(n);
      const auto rk = static_cast<std::size_t>(std::min<double>(
          std::lround(frac * static_cast<double>(rn)),
          static_cast<double>(rn / 2)));
      fx[k] *= hardwareEstimate_[rk];
    }
  }
  auto entry = std::make_shared<SourceSpectrum>();
  entry->floor = dsp::regularizationFloor(fx, dsp::kRelativeRegularization);
  entry->bins = std::move(fx);
  kept = std::move(entry);
  return kept;
}

std::vector<double> ChannelExtractor::extractEar(
    const std::vector<double>& recording,
    const std::vector<double>& source) const {
  // Real inputs: half-spectrum transforms (bins 0..n/2) carry everything,
  // and rfft zero-pads both signals to n itself.
  const auto fx = sourceSpectrum(
      source, dsp::nextPowerOfTwo(recording.size() + source.size()));
  auto h = dsp::deconvolveSpectrum(recording, fx->bins, fx->floor,
                                   kChannelLength);
  h.resize(kChannelLength, 0.0);
  return h;
}

BinauralChannel ChannelExtractor::extract(
    const std::vector<double>& leftRecording,
    const std::vector<double>& rightRecording,
    const std::vector<double>& source) const {
  UNIQ_SPAN("extract.stop");
  static obs::Counter& extracted =
      obs::registry().counter("extract.stops");
  static obs::Counter& tapMisses =
      obs::registry().counter("extract.tap_misses");
  extracted.inc();
  BinauralChannel out;
  out.sampleRate = sampleRate_;
  UNIQ_REQUIRE(!leftRecording.empty() && !rightRecording.empty() &&
                   !source.empty(),
               "empty input");
  out.left = extractEar(leftRecording, source);
  out.right = extractEar(rightRecording, source);

  out.quality.clipFractionLeft = clipFraction(leftRecording);
  out.quality.clipFractionRight = clipFraction(rightRecording);
  out.quality.tapSnrLeftDb = tapSnrDb(out.left);
  out.quality.tapSnrRightDb = tapSnrDb(out.right);
  out.quality.clipped =
      out.quality.clipFractionLeft > kMaxClipFraction ||
      out.quality.clipFractionRight > kMaxClipFraction;
  out.quality.lowSnr = out.quality.tapSnrLeftDb < kMinTapSnrDb ||
                       out.quality.tapSnrRightDb < kMinTapSnrDb;

  const double preGuard = kPreGuardSec * sampleRate_;
  const double window = kHeadWindowSec * sampleRate_;

  for (int e = 0; e < 2; ++e) {
    auto& channel = e == 0 ? out.left : out.right;
    auto& tapOut = e == 0 ? out.firstTapLeftSec : out.firstTapRightSec;
    const auto tap = dsp::findFirstTap(channel);
    if (!tap) {
      tapMisses.inc();
      tapOut = std::nullopt;
      continue;
    }
    tapOut = tap->position / sampleRate_;
    // Zero everything outside [tap - preGuard, tap + headWindow]: earlier is
    // deconvolution noise, later is room reverberation.
    const auto lo = static_cast<long>(std::floor(tap->position - preGuard));
    const auto hi = static_cast<long>(std::ceil(tap->position + window));
    for (long i = 0; i < static_cast<long>(channel.size()); ++i) {
      if (i < lo || i > hi) channel[static_cast<std::size_t>(i)] = 0.0;
    }
  }
  out.quality.tapsDetected =
      out.firstTapLeftSec.has_value() && out.firstTapRightSec.has_value();
  return out;
}

}  // namespace uniq::core
