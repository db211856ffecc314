#pragma once

#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/localizer.h"
#include "head/head_parameters.h"

namespace uniq::core {

/// One calibration stop as seen by the fusion stage.
struct FusionMeasurement {
  double imuAngleDeg = 0.0;       ///< alpha_i, gyro-integrated orientation
  double delayLeftSec = 0.0;      ///< first-tap delay at the left ear
  double delayRightSec = 0.0;     ///< first-tap delay at the right ear
  /// Index of the originating capture stop (bookkeeping for evaluation).
  std::size_t sourceIndex = 0;
};

/// A fused phone fix: the paper's Eq. 3, P((theta_i + alpha_i)/2, r_i).
struct FusedStop {
  double angleDeg = 0.0;
  double radiusM = 0.0;
  double imuAngleDeg = 0.0;
  double acousticAngleDeg = 0.0;
  bool localized = false;
  std::size_t sourceIndex = 0;  ///< originating capture stop
};

struct SensorFusionResult {
  head::HeadParameters headParams;
  std::vector<FusedStop> stops;
  /// Final objective value: mean squared IMU-vs-acoustic angle disagreement
  /// (deg^2) over localized stops.
  double meanSquaredResidualDeg2 = 0.0;
  /// Eq. 2 objective at the winning head parameters (includes the
  /// unlocalized penalty and the anthropometric prior; what the optimizer
  /// actually minimized).
  double finalObjectiveDeg2 = 0.0;
  std::size_t localizedCount = 0;
  /// Levenberg-Marquardt iterations (Jacobian builds) of the solve that
  /// produced this result, summed over its restarts. A solveRobust reject
  /// round replaces the result, so this is the last re-solve's count;
  /// `dsf.objective.evals` counts every evaluation.
  std::size_t iterations = 0;
  /// Number of optimizer restarts run (kFusionRestarts, or kWidenedRestarts
  /// when the widened re-solve won).
  std::size_t restartsUsed = 0;
  bool converged = false;
  /// solveRobust bookkeeping. `usable` is false when too few measurements
  /// survived to attempt a solve at all (strict solve() throws instead).
  bool usable = true;
  /// Source indices of stops dropped by the MAD outlier gate, ascending.
  std::vector<std::size_t> rejectedSourceIndices;
  /// Reject-and-retry rounds that actually removed a stop.
  std::size_t rejectRounds = 0;
  /// How close the last reject round came to flipping a decision: the
  /// smallest |residual - threshold| (deg) over the localized stops it
  /// judged. NaN when no round ran. Exported as `dsf.reject.margin_deg`.
  double rejectMarginDeg = std::numeric_limits<double>::quiet_NaN();
  /// True when the widened-restart fallback ran after a non-converged solve.
  bool widened = false;
};

/// Boundary discretization used inside the optimization loop (coarser than
/// the tables' kTableBoundaryResolution, for speed).
inline constexpr std::size_t kFusionBoundaryResolution = 128;
/// Penalty (deg^2) charged for a stop the localizer cannot place.
inline constexpr double kUnlocalizedPenaltyDeg2 = 400.0;
/// Levenberg-Marquardt starts of a solve: one, at the population-average
/// head.
inline constexpr std::size_t kFusionRestarts = 1;

// --- solveRobust (degraded-capture) constants ---
/// Reject-and-retry rounds: after each solve, stops whose IMU-vs-acoustic
/// residual is a MAD outlier are dropped and E is re-solved, at most this
/// many times.
inline constexpr std::size_t kMaxRejectRounds = 2;
/// A localized stop is an outlier when its absolute residual exceeds
/// kRejectMadMultiplier * 1.4826 * MAD of all residuals...
inline constexpr double kRejectMadMultiplier = 3.5;
/// ...and also exceeds this absolute floor (deg). Clean captures have
/// tightly clustered residuals, so a pure MAD rule would reject healthy
/// stops; a corrupted stop disagrees by tens of degrees.
inline constexpr double kRejectMinResidualDeg = 10.0;
/// Restart count of the widened re-solve that solveRobust runs when the
/// primary solve fails to converge: restart 0 begins at the
/// population-average head, later restarts at deterministically perturbed
/// corners of the squashed parameter box; the best final objective wins.
inline constexpr std::size_t kWidenedRestarts = 8;
static_assert(kWidenedRestarts > kFusionRestarts);

struct SensorFusionOptions {
  /// Anthropometric prior pulling E toward the population average
  /// (deg^2 per m^2 of axis deviation); keeps the head estimate from
  /// drifting to the bounds when the IMU is noisy.
  double priorWeight = 5.0e4;
  /// Fewest measurements worth solving with; below this solveRobust returns
  /// usable = false. Reject rounds never drop below it.
  std::size_t minMeasurements = 6;
};

/// Diffraction-aware sensor fusion (paper Section 4.1): jointly estimates
/// the head parameters E = (a, b, c) and the phone locations by minimizing
/// the disagreement between gyro-integrated phone angles alpha_i and
/// acoustically localized angles theta_i(E) (Eq. 2), then fuses the two
/// angle estimates (Eq. 3).
class SensorFusion {
 public:
  using Options = SensorFusionOptions;

  explicit SensorFusion(Options opts = {});

  SensorFusionResult solve(
      const std::vector<FusionMeasurement>& measurements) const;

  /// Degradation-tolerant solve: never throws on bad data. Returns
  /// usable = false when fewer than Options::minMeasurements stops are
  /// available; otherwise solves, drops MAD-outlier stops (bounded rounds,
  /// never below minMeasurements), and re-solves with widened restarts when
  /// the optimizer fails to converge, keeping whichever result scores the
  /// better objective. Rejected stops still appear in `stops` (localized =
  /// false) so callers can report them; their source indices are listed in
  /// rejectedSourceIndices.
  SensorFusionResult solveRobust(
      const std::vector<FusionMeasurement>& measurements) const;

  /// Warm-started incremental solve for streaming calibration: one
  /// Levenberg-Marquardt start at `seed` (the previous estimate) instead of
  /// the population average, no widening, no outlier rounds. With the same
  /// SensorFusion instance the geometry LRU carries the seed's boundary and
  /// warm Brent brackets over from the previous solve, so a refinement
  /// after one new stop costs a fraction of a cold solve. Accepts any
  /// non-empty measurement set (live feedback wants an estimate long before
  /// solve()'s six-stop minimum); returns usable = false only when
  /// `measurements` is empty. This is a *running* estimate for coverage and
  /// convergence feedback — final tables come from solveRobust.
  SensorFusionResult solveIncremental(
      const std::vector<FusionMeasurement>& measurements,
      const std::optional<head::HeadParameters>& seed = std::nullopt) const;

  /// The Eq. 2 objective for a specific head-parameter candidate: the
  /// squared norm of residuals(). Exposed for tests and ablation benches.
  double objective(const head::HeadParameters& candidate,
                   const std::vector<FusionMeasurement>& measurements) const;

  /// The Eq. 2 residual vector the solver minimizes: one entry per stop,
  /// (alpha_i - theta_i(E)) / sqrt(N), or sqrt(kUnlocalizedPenaltyDeg2 / N)
  /// for a stop the localizer cannot place; then three prior entries,
  /// sqrt(priorWeight) * (E - E_avg) per axis. Each call is one objective
  /// evaluation (`dsf.objective.evals`).
  std::vector<double> residuals(
      const head::HeadParameters& candidate,
      const std::vector<FusionMeasurement>& measurements) const;

 private:
  /// Shared solve core: optimize E over `measurements` with `restarts`
  /// independent starts, then fuse. Assumes a non-empty measurement set;
  /// public entry points enforce their own minimums. When `seedStart` is
  /// non-null, restart 0 begins there instead of the population average
  /// (the warm start used by solveIncremental).
  SensorFusionResult solveWith(
      const std::vector<FusionMeasurement>& measurements,
      std::size_t restarts,
      const head::HeadParameters* seedStart = nullptr) const;

  /// A candidate head geometry with its localizer, built once per distinct
  /// (a, b, c) and reused. The final fuse pass re-evaluates the winning
  /// point, and a warm-started re-solve begins at the previous answer, so
  /// keying on the exact parameter bits turns those rebuilds into cache
  /// hits. Immutable after construction; safe to share across threads.
  struct CachedGeometry {
    geo::HeadBoundary boundary;
    Localizer localizer;
    explicit CachedGeometry(const head::HeadParameters& p)
        : boundary(p.a, p.b, p.c, kFusionBoundaryResolution),
          localizer(boundary) {}
    CachedGeometry(const CachedGeometry&) = delete;
    CachedGeometry& operator=(const CachedGeometry&) = delete;
  };

  /// Geometry for `candidate` from the small LRU cache (built on miss).
  std::shared_ptr<const CachedGeometry> geometryFor(
      const head::HeadParameters& candidate) const;

  Options opts_;

  // LRU of recently used geometries, most recent first. Guarded by
  // geometryMutex_ so concurrent objective() calls stay safe.
  mutable std::mutex geometryMutex_;
  mutable std::list<
      std::pair<head::HeadParameters, std::shared_ptr<const CachedGeometry>>>
      geometryLru_;
};

}  // namespace uniq::core
