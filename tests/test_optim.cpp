#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "optim/levenberg_marquardt.h"
#include "optim/root_finding.h"

namespace uniq::optim {
namespace {

/// r(x) with its Jacobian, rows given as initializer lists.
Linearization linearization(std::vector<double> r,
                            std::vector<std::vector<double>> rows) {
  Linearization lin{std::move(r), Matrix(rows.size(), rows[0].size())};
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      lin.jacobian.at(i, j) = rows[i][j];
  return lin;
}

Linearization rosenbrock(const std::vector<double>& x) {
  return linearization({1.0 - x[0], 10.0 * (x[1] - x[0] * x[0])},
                       {{-1.0, 0.0}, {-20.0 * x[0], 10.0}});
}

TEST(LevenbergMarquardt, MinimizesQuadraticBowl) {
  int evals = 0;
  const auto f = [&evals](const std::vector<double>& x) {
    ++evals;
    return linearization({x[0] - 3.0, std::sqrt(2.0) * (x[1] + 1.0)},
                         {{1.0, 0.0}, {0.0, std::sqrt(2.0)}});
  };
  const auto result = levenbergMarquardt(f, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.fValue, 0.0, 1e-7);
  // Linear residuals: the linear model is exact, so every trial is
  // accepted until the last iteration's model promises nothing and no
  // trial is evaluated. One evaluation at the start, then one per
  // iteration but the last.
  EXPECT_EQ(evals, static_cast<int>(result.iterations));
}

TEST(LevenbergMarquardt, MinimizesRosenbrock) {
  const auto result = levenbergMarquardt(rosenbrock, {-1.2, 1.0}, 500);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(LevenbergMarquardt, OneDimensional) {
  const auto f = [](const std::vector<double>& x) {
    return linearization({std::exp(x[0]) - 3.0}, {{std::exp(x[0])}});
  };
  const auto result = levenbergMarquardt(f, {0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], std::log(3.0), 1e-4);
}

TEST(LevenbergMarquardt, OneEvaluationPerAcceptedStepAndRejectedTrial) {
  // Replaying the costs of the evaluations in order tells each trial's
  // fate: a trial is accepted exactly when it lowers the best cost so far.
  std::vector<double> costs;
  const auto f = [&costs](const std::vector<double>& x) {
    auto lin = rosenbrock(x);
    costs.push_back(lin.residuals[0] * lin.residuals[0] +
                    lin.residuals[1] * lin.residuals[1]);
    return lin;
  };
  const auto result = levenbergMarquardt(f, {-1.2, 1.0}, 500);
  ASSERT_TRUE(result.converged);
  std::size_t accepted = 0, rejected = 0;
  double best = costs.front();
  for (std::size_t k = 1; k < costs.size(); ++k) {
    if (costs[k] < best) {
      best = costs[k];
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(best, result.fValue);
  EXPECT_GT(rejected, 0u);
  // The start, then one evaluation per trial: no Jacobian columns. Every
  // iteration but the last stepped from a new point, and the last one may
  // have stopped without an accepted step.
  EXPECT_EQ(costs.size(), 1 + accepted + rejected);
  EXPECT_GE(accepted + 1, result.iterations);
  EXPECT_LE(accepted, result.iterations);
}

TEST(LevenbergMarquardt, RespectsIterationBudget) {
  int evals = 0;
  const auto f = [&evals](const std::vector<double>& x) {
    ++evals;
    return rosenbrock(x);
  };
  // Rosenbrock's valley is far longer than three bounded steps.
  const auto result = levenbergMarquardt(f, {-1.2, 1.0}, 3);
  EXPECT_EQ(result.iterations, 3u);
  EXPECT_FALSE(result.converged);
  EXPECT_LT(evals, 100);
}

TEST(LevenbergMarquardt, RejectsEmptyStart) {
  const auto none = [](const std::vector<double>&) { return Linearization{}; };
  EXPECT_THROW(levenbergMarquardt(none, {}), InvalidArgument);
}

TEST(LevenbergMarquardt, RejectsAJacobianOfTheWrongShape) {
  const auto f = [](const std::vector<double>& x) {
    return linearization({x[0], x[1]}, {{1.0, 0.0}});
  };
  EXPECT_THROW(levenbergMarquardt(f, {1.0, 1.0}), Error);
}

TEST(LevenbergMarquardt, StaysAtTheStartOfAPlateau) {
  int evals = 0;
  const auto f = [&evals](const std::vector<double>&) {
    ++evals;
    return linearization({1.0, -2.0}, {{0.0, 0.0}, {0.0, 0.0}});
  };
  const auto result = levenbergMarquardt(f, {0.25, -0.5});
  EXPECT_EQ(result.x, (std::vector<double>{0.25, -0.5}));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.fValue, 5.0);
  // A flat cost gives a zero gradient, hence no step to try: the start's
  // one evaluation, which brought its Jacobian along.
  EXPECT_EQ(evals, 1);
}

TEST(LevenbergMarquardt, StopsAtACliffInsteadOfCreepingTowardsIt) {
  // A smooth bowl centred past a jump at x = 1, as where a stop changes
  // localization branch: every trial across the jump is rejected, and the
  // accepted steps short of it shrink with the damping. The search stops
  // once the next step would move x by less than 1e-4, instead of creeping
  // up to the jump until its iteration budget runs out.
  int evals = 0;
  const auto f = [&evals](const std::vector<double>& x) {
    ++evals;
    return linearization({x[0] < 1.0 ? x[0] - 2.0 : 100.0}, {{1.0}});
  };
  const auto result = levenbergMarquardt(f, {0.0}, 200);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.x[0], 1.0);
  EXPECT_GT(result.x[0], 1.0 - 1e-4);
  // 15 iterations and 36 evaluations; creeping on until a step promises
  // less than 1e-6 of the cost took 22 and 53.
  EXPECT_LE(result.iterations, 15u);
  EXPECT_LE(evals, 36);
}

TEST(LevenbergMarquardt, StepBoundCapsTheLongestCoordinateChange) {
  const auto f = [](const std::vector<double>& x) {
    return linearization({x[0] - 100.0, 0.5 * (x[1] - 10.0)},
                         {{1.0, 0.0}, {0.0, 0.5}});
  };
  const auto result = levenbergMarquardt(f, {0.0, 0.0}, 1);
  // The Gauss-Newton step (~100, ~10) is scaled along its direction so
  // its longest coordinate moves by exactly the 0.5 bound.
  EXPECT_NEAR(result.x[0], 0.5, 1e-9);
  EXPECT_NEAR(result.x[1], 0.05, 1e-3);
}

TEST(RootFinding, BisectFindsSimpleRoot) {
  const auto f = [](double x) { return x * x - 2.0; };
  const double root = bisect(f, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-8);
}

TEST(RootFinding, BisectRejectsBadBracket) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(bisect(f, -1.0, 1.0), NumericalFailure);
  EXPECT_THROW(bisect(f, 1.0, -1.0), InvalidArgument);
}

TEST(RootFinding, BrentFindsRootFasterThanBisection) {
  int evalsBrent = 0, evalsBisect = 0;
  const auto fb = [&evalsBrent](double x) {
    ++evalsBrent;
    return std::cos(x) - x;
  };
  const auto fbi = [&evalsBisect](double x) {
    ++evalsBisect;
    return std::cos(x) - x;
  };
  RootOptions opts;
  opts.xTolerance = 1e-12;
  const double rb = brent(fb, 0.0, 1.5, opts);
  const double rbi = bisect(fbi, 0.0, 1.5, opts);
  EXPECT_NEAR(rb, rbi, 1e-9);
  EXPECT_NEAR(rb, 0.7390851332, 1e-8);
  EXPECT_LT(evalsBrent, evalsBisect);
}

TEST(RootFinding, BrentHandlesEndpointRoot) {
  const auto f = [](double x) { return x - 1.0; };
  EXPECT_NEAR(brent(f, 1.0, 2.0), 1.0, 1e-12);
}

TEST(RootFinding, FindAllRootsOfSine) {
  const auto f = [](double x) { return std::sin(x); };
  const auto roots = findAllRoots(f, 0.5, 3.5 * kPi, 100);
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_NEAR(roots[0], kPi, 1e-8);
  EXPECT_NEAR(roots[1], 2 * kPi, 1e-8);
  EXPECT_NEAR(roots[2], 3 * kPi, 1e-8);
}

TEST(RootFinding, FindAllRootsEmptyWhenNoSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_TRUE(findAllRoots(f, -5.0, 5.0, 50).empty());
}

}  // namespace
}  // namespace uniq::optim
