#pragma once

#include <complex>
#include <span>
#include <vector>

namespace uniq::dsp {

/// Second-order IIR section (RBJ audio-EQ-cookbook designs).
class Biquad {
 public:
  /// Direct coefficient construction (normalized so a0 == 1).
  Biquad(double b0, double b1, double b2, double a1, double a2);

  static Biquad lowpass(double cutoffHz, double q, double sampleRate);
  static Biquad highpass(double cutoffHz, double q, double sampleRate);
  static Biquad bandpass(double centerHz, double q, double sampleRate);

  /// Stream one sample through the filter (direct form II transposed).
  double step(double x);

  /// Filter a whole buffer (stateful; call reset() between signals).
  std::vector<double> process(std::span<const double> input);

  /// Clear the internal delay line.
  void reset();

  /// Complex frequency response at f (Hz).
  std::complex<double> responseAt(double freqHz, double sampleRate) const;

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double z1_ = 0.0, z2_ = 0.0;
};

/// Cascade of biquad sections applied in sequence.
class BiquadCascade {
 public:
  void add(Biquad section);
  std::vector<double> process(std::span<const double> input);
  void reset();

 private:
  std::vector<Biquad> sections_;
};

}  // namespace uniq::dsp
