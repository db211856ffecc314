#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "optim/levenberg_marquardt.h"
#include "optim/root_finding.h"

namespace uniq::optim {
namespace {

using Residuals = std::vector<double>;

TEST(LevenbergMarquardt, MinimizesQuadraticBowl) {
  const auto r = [](const std::vector<double>& x) {
    return Residuals{x[0] - 3.0, std::sqrt(2.0) * (x[1] + 1.0)};
  };
  const auto result = levenbergMarquardt(r, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.fValue, 0.0, 1e-7);
}

TEST(LevenbergMarquardt, MinimizesRosenbrock) {
  const auto r = [](const std::vector<double>& x) {
    return Residuals{1.0 - x[0], 10.0 * (x[1] - x[0] * x[0])};
  };
  const auto result = levenbergMarquardt(r, {-1.2, 1.0}, 500);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(LevenbergMarquardt, OneDimensional) {
  const auto r = [](const std::vector<double>& x) {
    return Residuals{std::exp(x[0]) - 3.0};
  };
  const auto result = levenbergMarquardt(r, {0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], std::log(3.0), 1e-4);
}

TEST(LevenbergMarquardt, RespectsIterationBudget) {
  int evals = 0;
  const auto r = [&evals](const std::vector<double>& x) {
    ++evals;
    return Residuals{1.0 - x[0], 10.0 * (x[1] - x[0] * x[0])};
  };
  // Rosenbrock's valley is far longer than three bounded steps.
  const auto result = levenbergMarquardt(r, {-1.2, 1.0}, 3);
  EXPECT_EQ(result.iterations, 3u);
  EXPECT_FALSE(result.converged);
  EXPECT_LT(evals, 100);
}

TEST(LevenbergMarquardt, RejectsEmptyStart) {
  const auto none = [](const std::vector<double>&) { return Residuals{}; };
  EXPECT_THROW(levenbergMarquardt(none, {}), InvalidArgument);
}

TEST(LevenbergMarquardt, StaysAtTheStartOfAPlateau) {
  int evals = 0;
  const auto r = [&evals](const std::vector<double>&) {
    ++evals;
    return Residuals{1.0, -2.0};
  };
  const auto result = levenbergMarquardt(r, {0.25, -0.5});
  EXPECT_EQ(result.x, (std::vector<double>{0.25, -0.5}));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.fValue, 5.0);
  // A flat cost gives a zero gradient, hence no step to try: the start
  // and one Jacobian column per coordinate.
  EXPECT_EQ(evals, 3);
}

TEST(LevenbergMarquardt, StepBoundCapsTheLongestCoordinateChange) {
  const auto r = [](const std::vector<double>& x) {
    return Residuals{x[0] - 100.0, 0.5 * (x[1] - 10.0)};
  };
  const auto result = levenbergMarquardt(r, {0.0, 0.0}, 1);
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
