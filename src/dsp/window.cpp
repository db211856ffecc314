#include "dsp/window.h"

#include <cmath>

#include "common/constants.h"
#include "common/error.h"

namespace uniq::dsp {

std::vector<double> makeWindow(WindowType type, std::size_t n,
                               double tukeyAlpha) {
  UNIQ_REQUIRE(n >= 1, "window length must be >= 1");
  std::vector<double> w(n, 1.0);
  if (n == 1) return w;
  const double nm1 = static_cast<double>(n - 1);
  switch (type) {
    case WindowType::kRectangular:
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * static_cast<double>(i) / nm1);
      break;
    case WindowType::kHamming:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) / nm1);
      break;
    case WindowType::kBlackman:
      for (std::size_t i = 0; i < n; ++i) {
        const double x = kTwoPi * static_cast<double>(i) / nm1;
        w[i] = 0.42 - 0.5 * std::cos(x) + 0.08 * std::cos(2 * x);
      }
      break;
    case WindowType::kTukey: {
      UNIQ_REQUIRE(tukeyAlpha >= 0.0 && tukeyAlpha <= 1.0,
                   "tukey alpha must be in [0,1]");
      const double a = tukeyAlpha;
      if (a <= 0.0) break;  // rectangular
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i) / nm1;
        if (x < a / 2) {
          w[i] = 0.5 * (1 + std::cos(kPi * (2 * x / a - 1)));
        } else if (x > 1 - a / 2) {
          w[i] = 0.5 * (1 + std::cos(kPi * (2 * x / a - 2 / a + 1)));
        } else {
          w[i] = 1.0;
        }
      }
      break;
    }
  }
  return w;
}

}  // namespace uniq::dsp
