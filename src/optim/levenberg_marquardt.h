#pragma once

#include <functional>
#include <vector>

namespace uniq::optim {

/// Result of a minimization.
struct MinimizeResult {
  std::vector<double> x;
  double fValue = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Minimizes the cost ||r(x)||^2 of a residual vector r over R^n from x0
/// by Levenberg-Marquardt: a forward-difference Jacobian J (step 0.01 per
/// coordinate, n extra residual evaluations per iteration), then damped
/// Gauss-Newton steps (J^T J + lambda diag(J^T J)) dx = -J^T r, raising
/// lambda tenfold on each rejected trial and lowering it tenfold on each
/// accepted one. A step that would move any coordinate by more than 0.5
/// is scaled down along its direction, which keeps the linear model from
/// leaping across a cost that is only piecewise smooth. A trial whose
/// linear model promises a decrease below 1e-6 of the cost is not
/// evaluated: the search stops there. The step, bound and tolerance suit
/// sensor fusion's squashed head coordinates (its only caller).
///
/// `iterations` counts Jacobian builds, at most `maxIterations`.
/// `converged` is true when the search stopped at a minimum to that
/// resolution: an accepted step or the model's promise lowered the cost by
/// less than 1e-6 of it, or the damping ran out. It is false when the
/// iteration budget ran out, or when the gradient J^T r at x0 is exactly
/// zero (no step to try; `x` stays x0). Used by sensor fusion to solve
/// paper Eq. 2 over the head parameters E = (a, b, c).
MinimizeResult levenbergMarquardt(
    const std::function<std::vector<double>(const std::vector<double>&)>& r,
    const std::vector<double>& x0, std::size_t maxIterations = 50);

}  // namespace uniq::optim
