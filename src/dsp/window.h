#pragma once

#include <cstddef>
#include <vector>

namespace uniq::dsp {

/// Window functions used by spectral analysis and tap shaping.
enum class WindowType { kRectangular, kHann, kHamming, kBlackman, kTukey };

/// Generate a window of length n. `tukeyAlpha` only matters for kTukey
/// (fraction of the window inside the cosine tapers, in [0,1]).
std::vector<double> makeWindow(WindowType type, std::size_t n,
                               double tukeyAlpha = 0.5);

}  // namespace uniq::dsp
