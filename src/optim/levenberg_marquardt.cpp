#include "optim/levenberg_marquardt.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "optim/linalg.h"

namespace uniq::optim {

namespace {

// Damping lambda, relative to the diagonal of J^T J: where a search starts,
// the floor after accepted steps (far below 1 a smaller lambda no longer
// changes the step, so going lower only costs trials), and the ceiling
// past which a search gives up.
constexpr double kInitialDamping = 1e-3;
constexpr double kMinDamping = 1e-6;
constexpr double kMaxDamping = 1e8;
// Forward-difference step, largest change of one coordinate per step, and
// the relative cost decrease below which the search stops (see the header).
constexpr double kJacobianStep = 0.01;
constexpr double kMaxStep = 0.5;
constexpr double kRelativeTolerance = 1e-6;

double sumOfSquares(const std::vector<double>& r) {
  double s = 0.0;
  for (const double v : r) s += v * v;
  return s;
}

}  // namespace

MinimizeResult levenbergMarquardt(
    const std::function<std::vector<double>(const std::vector<double>&)>& r,
    const std::vector<double>& x0, std::size_t maxIterations) {
  UNIQ_REQUIRE(!x0.empty(), "levenbergMarquardt needs at least one dimension");
  const std::size_t n = x0.size();

  MinimizeResult result;
  result.x = x0;
  std::vector<double> res = r(x0);
  const std::size_t m = res.size();
  UNIQ_REQUIRE(m > 0, "residual vector is empty");
  result.fValue = sumOfSquares(res);

  double lambda = kInitialDamping;
  while (result.iterations < maxIterations) {
    ++result.iterations;
    // Forward-difference Jacobian, one column per coordinate.
    Matrix jac(m, n);
    for (std::size_t j = 0; j < n; ++j) {
      auto xh = result.x;
      xh[j] += kJacobianStep;
      const auto rh = r(xh);
      UNIQ_CHECK(rh.size() == m, "residual vector changed size");
      for (std::size_t i = 0; i < m; ++i)
        jac.at(i, j) = (rh[i] - res[i]) / kJacobianStep;
    }
    const Matrix jt = jac.transposed();
    const Matrix jtj = jt.multiply(jac);
    std::vector<double> descent = jt.apply(res);
    bool flat = true;
    for (auto& g : descent) {
      flat = flat && g == 0.0;
      g = -g;
    }
    // No descent direction at all: a minimum the search reached, or a
    // plateau it started on.
    if (flat) {
      result.converged = result.x != x0;
      return result;
    }

    // Damped step search: raise lambda until a step lowers the cost, or
    // until the linear model promises less than the tolerance, which
    // makes the current point a minimum to the resolution asked for.
    bool stepTaken = false;
    double decrease = 0.0;
    for (; lambda <= kMaxDamping; lambda *= 10.0) {
      Matrix damped = jtj;
      for (std::size_t j = 0; j < n; ++j)
        damped.at(j, j) += lambda * (jtj.at(j, j) + 1e-12);
      std::vector<double> step;
      try {
        step = solveLinear(damped, descent);
      } catch (const NumericalFailure&) {
        continue;
      }
      double longest = 0.0;
      for (const double s : step) longest = std::max(longest, std::fabs(s));
      if (longest > kMaxStep)
        for (auto& s : step) s *= kMaxStep / longest;
      const auto predicted = jac.apply(step);
      double modelCost = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        modelCost += (res[i] + predicted[i]) * (res[i] + predicted[i]);
      const double promised = result.fValue - modelCost;
      if (!(promised > kRelativeTolerance * result.fValue)) break;
      auto xn = result.x;
      for (std::size_t j = 0; j < n; ++j) xn[j] += step[j];
      auto rn = r(xn);
      UNIQ_CHECK(rn.size() == m, "residual vector changed size");
      const double fn = sumOfSquares(rn);
      if (fn < result.fValue) {
        decrease = result.fValue - fn;
        result.x = std::move(xn);
        res = std::move(rn);
        result.fValue = fn;
        lambda = std::max(lambda * 0.1, kMinDamping);
        stepTaken = true;
        break;
      }
    }
    if (!stepTaken ||
        decrease < kRelativeTolerance * (result.fValue + decrease)) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

}  // namespace uniq::optim
