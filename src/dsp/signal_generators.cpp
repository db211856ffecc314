#include "dsp/signal_generators.h"

#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "dsp/biquad.h"
#include "dsp/window.h"

namespace uniq::dsp {

namespace {

void fadeEdges(std::vector<double>& s, std::size_t fadeLen) {
  const std::size_t n = s.size();
  fadeLen = std::min(fadeLen, n / 2);
  for (std::size_t i = 0; i < fadeLen; ++i) {
    const double g =
        0.5 * (1 - std::cos(kPi * static_cast<double>(i) /
                            static_cast<double>(fadeLen)));
    s[i] *= g;
    s[n - 1 - i] *= g;
  }
}

}  // namespace

std::vector<double> linearChirp(double f0, double f1, std::size_t samples,
                                double sampleRate, double amplitude) {
  UNIQ_REQUIRE(samples >= 2, "chirp needs >= 2 samples");
  UNIQ_REQUIRE(sampleRate > 0 && f0 >= 0 && f1 > 0, "bad chirp parameters");
  std::vector<double> s(samples);
  const double duration = static_cast<double>(samples) / sampleRate;
  const double k = (f1 - f0) / duration;
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / sampleRate;
    const double phase = kTwoPi * (f0 * t + 0.5 * k * t * t);
    s[i] = amplitude * std::sin(phase);
  }
  fadeEdges(s, samples / 16);
  return s;
}

std::vector<double> whiteNoise(std::size_t samples, Pcg32& rng,
                               double amplitude) {
  std::vector<double> s(samples);
  for (auto& v : s) v = amplitude * rng.gaussian();
  return s;
}

std::vector<double> speechLike(std::size_t samples, double sampleRate,
                               Pcg32& rng) {
  UNIQ_REQUIRE(sampleRate > 2000, "sample rate too low for speech model");
  std::vector<double> s(samples, 0.0);
  const double f0 = rng.uniform(100.0, 160.0);  // fundamental pitch
  // Glottal pulse train with slight jitter, 12 harmonics, 1/k rolloff.
  double phase = 0.0;
  std::vector<double> raw(samples, 0.0);
  for (std::size_t i = 0; i < samples; ++i) {
    const double jitter = 1.0 + 0.02 * std::sin(kTwoPi * 4.3 *
                                                static_cast<double>(i) /
                                                sampleRate);
    phase += kTwoPi * f0 * jitter / sampleRate;
    double v = 0.0;
    for (int k = 1; k <= 12; ++k)
      v += std::sin(static_cast<double>(k) * phase) / static_cast<double>(k);
    raw[i] = v;
  }
  // Formant resonances (bandpass cascade blend).
  const double formants[3] = {rng.uniform(500, 900), rng.uniform(1100, 1700),
                              rng.uniform(2300, 3000)};
  std::vector<double> shaped(samples, 0.0);
  for (double fc : formants) {
    Biquad bp = Biquad::bandpass(fc, 2.0, sampleRate);
    auto band = bp.process(raw);
    for (std::size_t i = 0; i < samples; ++i) shaped[i] += band[i];
  }
  // Syllabic envelope: ~4 Hz on/off modulation with noise-driven variation.
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / sampleRate;
    const double env =
        std::max(0.0, std::sin(kTwoPi * 3.7 * t) + 0.3) / 1.3;
    s[i] = shaped[i] * env;
  }
  normalizeRms(s, 0.25);
  return s;
}

std::vector<double> musicLike(std::size_t samples, double sampleRate,
                              Pcg32& rng) {
  UNIQ_REQUIRE(sampleRate > 2000, "sample rate too low for music model");
  std::vector<double> s(samples, 0.0);
  // Pentatonic-ish note pool.
  const double base = 220.0;
  const double ratios[5] = {1.0, 9.0 / 8, 5.0 / 4, 3.0 / 2, 5.0 / 3};
  const double noteDur = 0.08;  // seconds per note event
  const auto noteSamples = static_cast<std::size_t>(noteDur * sampleRate);
  for (std::size_t start = 0; start < samples; start += noteSamples) {
    const double f =
        base * ratios[rng.nextBounded(5)] * std::pow(2.0, rng.nextBounded(3));
    const std::size_t len = std::min(noteSamples * 2, samples - start);
    for (std::size_t i = 0; i < len; ++i) {
      const double t = static_cast<double>(i) / sampleRate;
      const double env = std::exp(-t / 0.05);
      double v = 0.0;
      for (int k = 1; k <= 6; ++k)
        v += std::sin(kTwoPi * f * static_cast<double>(k) * t) /
             static_cast<double>(k * k);
      s[start + i] += env * v;
    }
  }
  normalizeRms(s, 0.25);
  return s;
}

double rms(const std::vector<double>& signal) {
  if (signal.empty()) return 0.0;
  double acc = 0.0;
  for (double v : signal) acc += v * v;
  return std::sqrt(acc / static_cast<double>(signal.size()));
}

void normalizeRms(std::vector<double>& signal, double targetRms) {
  const double r = rms(signal);
  if (r < 1e-30) return;
  const double g = targetRms / r;
  for (auto& v : signal) v *= g;
}

void addNoiseSnrDb(std::vector<double>& signal, double snrDb, Pcg32& rng) {
  const double r = rms(signal);
  if (r < 1e-30) return;
  const double noiseRms = r * std::pow(10.0, -snrDb / 20.0);
  for (auto& v : signal) v += rng.gaussian(0.0, noiseRms);
}

}  // namespace uniq::dsp
