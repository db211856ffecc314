#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "dsp/fft.h"

namespace uniq::dsp {

/// A precomputed real-FFT plan for one power-of-two length.
///
/// Plans hold packed per-stage twiddle tables in split re/im (SoA) form;
/// the butterfly cascades run through the runtime-dispatched kernel layer
/// (dsp/kernels/), so they execute as AVX2+FMA vector code on capable CPUs
/// and as portable scalar code elsewhere.
///
/// Plans are immutable after construction and safe to share across threads;
/// transform scratch comes from the per-thread arena (common/aligned.h).
/// Most callers should go through the process-wide cache (fftPlan()) instead
/// of constructing plans directly.
class FftPlan {
 public:
  /// Throws uniq::InvalidArgument unless n is a power of two (n >= 1).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Transforms real input via one complex FFT of length n/2 and returns
  /// the non-redundant half spectrum X[0..n/2] (size n/2 + 1). The
  /// remaining bins are the conjugate mirror X[n-k] = conj(X[k]). `input`
  /// may hold 1..n samples; the missing tail counts as zeros, so callers
  /// never build padded copies. Every bin == the transform of the
  /// explicitly padded signal (only the sign of an exact zero may differ),
  /// and a short input skips the butterfly stages that would only move
  /// zeros: with at most n/2^s samples (s >= 2), the first s of the n/2
  /// transform's log2(n/2) stages.
  std::vector<Complex> rfft(std::span<const double> input) const;
  /// rfft() into caller storage of n/2 + 1 bins (for example
  /// scratchComplex()), so a transform does no heap allocation. Same bits
  /// as rfft(input).
  void rfft(std::span<const double> input, std::span<Complex> out) const;

  /// Inverse of rfft(): takes the half spectrum (size n/2 + 1, assumed to
  /// describe a conjugate-symmetric full spectrum) and returns the length-n
  /// real signal, including the 1/N scaling.
  std::vector<double> irfft(std::span<const Complex> halfSpectrum) const;
  /// irfft() into caller storage of n samples. Same bits as irfft(half).
  void irfft(std::span<const Complex> halfSpectrum,
             std::span<double> out) const;

 private:
  /// Packed single-transform stage-table base pointers (stage for `len`
  /// starts at offset len/2 - 2; see dsp/kernels/kernels.h). Null for
  /// plans of length < 4, where no multiplying stage exists.
  const double* stageTwRe() const {
    return twRe_.size() > 1 ? twRe_.data() + 1 : nullptr;
  }
  const double* stageTwIm(bool inverse) const {
    const auto& t = inverse ? invTwIm_ : twIm_;
    return t.size() > 1 ? t.data() + 1 : nullptr;
  }

  std::size_t n_;
  /// Bit-reversal permutation of length n/2: the order in which the
  /// length-n/2 complex transform inside rfft/irfft gathers its input.
  std::vector<std::uint32_t> halfBitrev_;
  /// Packed per-stage twiddles (stages len = 2..n, stage offset
  /// len/2 - 1, n - 1 entries): exp(-2*pi*i*k/len) split into re and im
  /// lanes. The kernels, which handle the twiddle-free len == 2 stage
  /// themselves, take the storage shifted by one entry
  /// (stageTwRe/stageTwIm); the length-n/2 transform reads the stages up to
  /// len == n/2, and the rfft split twiddles are the len == n stage slice
  /// at offset n/2 - 1. `invTwIm_` is the negated im lane (conjugate
  /// tables) for inverse transforms.
  common::AlignedBuffer<double> twRe_;
  common::AlignedBuffer<double> twIm_;
  common::AlignedBuffer<double> invTwIm_;
};

/// Process-wide, mutex-guarded plan cache. Returns a shared immutable plan
/// for length n (a power of two), building it on first use. Thread-safe.
/// Lookups count into the `fft.plan.hits`/`fft.plan.misses` registry
/// counters, the cache size into the `fft.plan.cached` gauge, and every
/// executed rfft/irfft into `fft.transforms`.
std::shared_ptr<const FftPlan> fftPlan(std::size_t n);

/// `n` values from the calling thread's common::simdScratch() arena, valid
/// until the enclosing common::ArenaScope unwinds: transient spectra and
/// signals that would otherwise be a fresh heap block per transform.
std::span<Complex> scratchComplex(std::size_t n);
std::span<double> scratchDoubles(std::size_t n);

/// Convenience wrappers over the plan cache. `n = input.size()` must be a
/// power of two; the half spectrum has size n/2 + 1.
std::vector<Complex> rfft(std::span<const double> input);

/// Inverse of rfft() for a full length of n (power of two,
/// halfSpectrum.size() == n/2 + 1).
std::vector<double> irfft(std::span<const Complex> halfSpectrum,
                          std::size_t n);

}  // namespace uniq::dsp
