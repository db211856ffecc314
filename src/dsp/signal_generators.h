#pragma once

#include <cstddef>
#include <vector>

#include "common/random.h"

namespace uniq::dsp {

/// Linear frequency sweep (chirp) from f0 to f1 Hz over `samples` samples,
/// amplitude-tapered with a short Tukey fade to avoid clicks. This is the
/// probe signal UNIQ's phone plays during calibration.
std::vector<double> linearChirp(double f0, double f1, std::size_t samples,
                                double sampleRate, double amplitude = 1.0);

/// White Gaussian noise.
std::vector<double> whiteNoise(std::size_t samples, Pcg32& rng,
                               double amplitude = 1.0);

/// Speech-like signal: a pitch train (~120 Hz fundamental) with a few
/// formant resonances and a syllabic on/off envelope. Spectrally concentrated
/// at low frequencies — this is why the paper finds speech the hardest
/// "unknown source" class (Section 5.1, Figure 22).
std::vector<double> speechLike(std::size_t samples, double sampleRate,
                               Pcg32& rng);

/// Music-like signal: a sequence of note events, each a fundamental plus
/// harmonics with exponential decay envelopes.
std::vector<double> musicLike(std::size_t samples, double sampleRate,
                              Pcg32& rng);

/// Scale a signal in place so its RMS matches `targetRms`. No-op on silence.
void normalizeRms(std::vector<double>& signal, double targetRms);

/// RMS of a signal (0 for empty).
double rms(const std::vector<double>& signal);

/// Add white Gaussian noise at the given signal-to-noise ratio in dB,
/// measured against the current RMS of `signal`.
void addNoiseSnrDb(std::vector<double>& signal, double snrDb, Pcg32& rng);

}  // namespace uniq::dsp
