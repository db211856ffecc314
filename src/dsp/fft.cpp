#include "dsp/fft.h"

#include <cmath>
#include <limits>

#include "common/constants.h"
#include "common/error.h"

namespace uniq::dsp {

std::size_t nextPowerOfTwo(std::size_t n) {
  constexpr std::size_t kMaxPow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  UNIQ_REQUIRE(n <= kMaxPow2,
               "nextPowerOfTwo: n exceeds the largest size_t power of two");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool isPowerOfTwo(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fftPow2ReferenceInPlace(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  UNIQ_REQUIRE(isPowerOfTwo(n),
               "fftPow2ReferenceInPlace needs a power-of-two size");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= scale;
  }
}

}  // namespace uniq::dsp
