#pragma once

#include <functional>
#include <vector>

#include "optim/linalg.h"

namespace uniq::optim {

/// Result of a minimization.
struct MinimizeResult {
  std::vector<double> x;
  double fValue = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// One evaluation of a least-squares problem at a point x: the residual
/// vector r(x) (m entries) and its Jacobian dr/dx (m x n).
struct Linearization {
  std::vector<double> residuals;
  Matrix jacobian;
};

/// Evaluates r and its Jacobian at x.
using ResidualFunction =
    std::function<Linearization(const std::vector<double>& x)>;

/// Minimizes the cost ||r(x)||^2 of a residual vector r over R^n from x0
/// by Levenberg-Marquardt: damped Gauss-Newton steps
/// (J^T J + lambda diag(J^T J)) dx = -J^T r with the Jacobian J that each
/// evaluation of `f` returns, raising lambda tenfold on each rejected trial
/// and lowering it tenfold on each accepted one. A search evaluates `f`
/// once at x0 and once per trial step; an accepted trial's Jacobian is the
/// next iteration's. A step that would move any coordinate by more than
/// 0.5 is scaled down along its direction, which keeps the linear model
/// from leaping across a cost that is only piecewise smooth. A trial whose
/// linear model promises a decrease below 1e-6 of the cost, or that moves
/// no coordinate by 1e-4 or more, is not evaluated: the search stops
/// there. Without the second rule a search that has reached a cliff in
/// the cost (a stop changing localization branch) creeps towards it in
/// ever smaller steps, each one just clearing the first rule. The bound
/// and tolerances suit sensor fusion's squashed head coordinates (its only
/// caller), where 1e-4 moves a head axis by about a micrometre.
///
/// `iterations` counts the linearizations the search stepped from, at most
/// `maxIterations`. `converged` is true when the search stopped at a
/// minimum to that resolution: an accepted step or the model's promise
/// lowered the cost by less than 1e-6 of it, the next step would move
/// less than 1e-4, or the damping ran out. It is
/// false when the iteration budget ran out, or when the gradient J^T r at
/// x0 is exactly zero (no step to try; `x` stays x0). Used by sensor fusion
/// to solve paper Eq. 2 over the head parameters E = (a, b, c).
MinimizeResult levenbergMarquardt(const ResidualFunction& f,
                                  const std::vector<double>& x0,
                                  std::size_t maxIterations = 50);

}  // namespace uniq::optim
