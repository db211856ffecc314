#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "dsp/fft.h"

namespace uniq::core {

/// Per-stop capture-quality evidence, computed during extraction. The
/// pipeline's quality gate uses it to exclude corrupted stops from fusion
/// instead of letting one clipped recording poison the head estimate
/// (in-the-wild HRTF capture lives or dies on rejecting bad measurements).
struct StopQuality {
  /// Fraction of raw recording samples sitting at the waveform peak
  /// (flat-topped). Clean recordings touch their peak a handful of times;
  /// a clipped one plateaus there.
  double clipFractionLeft = 0.0;
  double clipFractionRight = 0.0;
  /// Peak-to-floor ratio of the deconvolved channel (dB): channel peak over
  /// the median absolute sample. Sparse clean channels score high; burst
  /// noise, dropouts, and failed mics crush it.
  double tapSnrLeftDb = 0.0;
  double tapSnrRightDb = 0.0;
  bool tapsDetected = false;  ///< both ears produced a first tap
  bool clipped = false;       ///< either ear's clip fraction beyond threshold
  bool lowSnr = false;        ///< either ear's tap SNR below threshold
  /// True when the stop should not feed sensor fusion.
  bool gated() const { return clipped || lowSnr || !tapsDetected; }
};

/// A per-stop binaural acoustic channel estimate with absolute timing
/// preserved (the phone and earbuds are synchronized, so tap positions are
/// true propagation delays).
struct BinauralChannel {
  std::vector<double> left;
  std::vector<double> right;
  double sampleRate = 0.0;
  /// First-tap (diffraction path) delays in seconds; nullopt when no tap
  /// cleared the detection threshold in that ear.
  std::optional<double> firstTapLeftSec;
  std::optional<double> firstTapRightSec;
  /// Capture-quality evidence for this stop (see StopQuality).
  StopQuality quality;
};

/// Keep this much channel after the first tap; everything later is a room
/// reflection and is zeroed (paper Section 4.6, "Tackling room
/// reflections": head diffraction and pinna multipath arrive earlier than
/// room reflections). Known-source AoA strips rooms with the same window.
inline constexpr double kHeadWindowSec = 2.5e-3;
/// Extracted channel length in samples.
inline constexpr std::size_t kChannelLength = 256;
/// Quality gate: a stop whose raw recording spends more than this fraction
/// of samples flat at the waveform peak is marked clipped.
inline constexpr double kMaxClipFraction = 5e-3;
/// Quality gate: minimum deconvolved-channel peak-to-floor ratio (dB)
/// before the stop's taps are considered trustworthy.
inline constexpr double kMinTapSnrDb = 14.0;

struct ChannelExtractorOptions {
  /// Compensate the speaker-mic frequency response (Section 4.6). Turned
  /// off only by the ablation bench.
  bool compensateHardware = true;
};

/// Estimates binaural channels from raw earbud recordings of the known
/// chirp: deconvolution, hardware-response compensation, room-reflection
/// removal, and first-tap extraction.
class ChannelExtractor {
 public:
  using Options = ChannelExtractorOptions;

  /// `hardwareResponseEstimate` is the co-located speaker-mic response
  /// estimate (Section 4.6); pass an empty vector to skip compensation.
  ChannelExtractor(std::vector<dsp::Complex> hardwareResponseEstimate,
                   double sampleRate, Options opts = {});

  /// Extract the binaural channel from one stop's recordings.
  BinauralChannel extract(const std::vector<double>& leftRecording,
                          const std::vector<double>& rightRecording,
                          const std::vector<double>& source) const;

 private:
  /// One ear's deconvolved channel (kChannelLength samples).
  std::vector<double> extractEar(const std::vector<double>& recording,
                                 const std::vector<double>& source) const;
  /// A kept source spectrum and its deconvolution regularization floor.
  struct SourceSpectrum {
    std::vector<dsp::Complex> bins;
    double floor = 0.0;  ///< dsp::regularizationFloor(bins, ...)
  };
  /// Half spectrum of `source` at FFT size `n`, times the hardware response
  /// estimate when compensation is on (the compensation applies to the
  /// transmit chain only, so every ear and stop shares it), with its
  /// regularization floor. Computed once per FFT size for a given source
  /// and kept; a different source replaces the kept spectra. Thread-safe.
  std::shared_ptr<const SourceSpectrum> sourceSpectrum(
      const std::vector<double>& source, std::size_t n) const;

  std::vector<dsp::Complex> hardwareEstimate_;
  double sampleRate_;
  Options opts_;
  mutable std::mutex sourceMutex_;
  /// The source the kept spectra belong to, and the spectra by FFT size.
  mutable std::vector<double> source_;
  mutable std::map<std::size_t, std::shared_ptr<const SourceSpectrum>>
      sourceSpectra_;
};

}  // namespace uniq::core
