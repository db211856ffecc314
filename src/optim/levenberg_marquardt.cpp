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
// Largest change of one coordinate per step, the relative cost decrease
// below which the search stops, and the smallest step it evaluates (see
// the header).
constexpr double kMaxStep = 0.5;
constexpr double kRelativeTolerance = 1e-6;
constexpr double kStepTolerance = 1e-4;

double sumOfSquares(const std::vector<double>& r) {
  double s = 0.0;
  for (const double v : r) s += v * v;
  return s;
}

void checkShape(const Linearization& lin, std::size_t m, std::size_t n) {
  UNIQ_CHECK(lin.residuals.size() == m, "residual vector changed size");
  UNIQ_CHECK(lin.jacobian.rows() == m && lin.jacobian.cols() == n,
             "Jacobian is not residuals x coordinates");
}

}  // namespace

MinimizeResult levenbergMarquardt(const ResidualFunction& f,
                                  const std::vector<double>& x0,
                                  std::size_t maxIterations) {
  UNIQ_REQUIRE(!x0.empty(), "levenbergMarquardt needs at least one dimension");
  const std::size_t n = x0.size();

  MinimizeResult result;
  result.x = x0;
  Linearization at = f(x0);
  const std::size_t m = at.residuals.size();
  UNIQ_REQUIRE(m > 0, "residual vector is empty");
  checkShape(at, m, n);
  result.fValue = sumOfSquares(at.residuals);

  double lambda = kInitialDamping;
  while (result.iterations < maxIterations) {
    ++result.iterations;
    const std::vector<double>& res = at.residuals;
    const Matrix& jac = at.jacobian;
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
      if (!(promised > kRelativeTolerance * result.fValue) ||
          !(std::min(longest, kMaxStep) >= kStepTolerance))
        break;
      auto xn = result.x;
      for (std::size_t j = 0; j < n; ++j) xn[j] += step[j];
      auto trial = f(xn);
      checkShape(trial, m, n);
      const double fn = sumOfSquares(trial.residuals);
      if (fn < result.fValue) {
        decrease = result.fValue - fn;
        result.x = std::move(xn);
        at = std::move(trial);
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
