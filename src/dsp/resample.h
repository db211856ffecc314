#pragma once

#include <span>
#include <vector>

namespace uniq::dsp {

/// Resample by an arbitrary positive ratio (outputRate / inputRate) using
/// windowed-sinc interpolation. When downsampling, the kernel is widened to
/// act as the anti-alias filter.
std::vector<double> resample(std::span<const double> input, double inputRate,
                             double outputRate, int halfWidth = 16);

}  // namespace uniq::dsp
