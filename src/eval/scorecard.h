#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace uniq::eval {

/// One cell of the calibration scorecard grid: one volunteer, one capture.
struct ScorecardCell {
  std::string volunteer;
  /// "clean" or the injected fault's name.
  std::string capture;
  /// Pipeline status name.
  std::string status;

  // Fidelity against ground truth: |a|, |b|, |c| head error; median fused
  // angle error (Fig. 17); mean HRIR correlation of the near- and
  // far-field tables (Fig. 18); median unknown-source white-noise AoA
  // error (Fig. 22).
  double headErrMm[3] = {0.0, 0.0, 0.0};
  double locMedianDeg = 0.0;
  double nearCorr = 0.0;
  double farCorr = 0.0;
  double aoaMedianDeg = 0.0;

  // Work counts of the calibration alone (not the capture simulation or
  // the evaluation): `dsf.objective.evals`, `fft.transforms`,
  // `dsp.fractional_shift.calls`, stops fusion dropped as outliers, 1 when
  // fusion ran its widened re-solve, and the fusion report's iterations.
  // They do not depend on the host or the thread count.
  std::uint64_t objectiveEvals = 0;
  std::uint64_t fftTransforms = 0;
  std::uint64_t fractionalShifts = 0;
  std::uint64_t rejectedStops = 0;
  std::uint64_t widened = 0;
  std::uint64_t fusionIterations = 0;
  /// Fusion's reject margin (SensorFusionResult::rejectMarginDeg): written
  /// to the work block beside the counts, but not gated; it shows how near
  /// the cell is to flipping a reject decision.
  double rejectMarginDeg = 0.0;
};

struct Scorecard {
  std::string isa;  ///< kernel tier the grid ran on
  std::vector<ScorecardCell> cells;
};

/// The calibration scorecard: a seeded grid of full calibrations that pins
/// what every stage delivers (paper Figs. 17, 18, 22) and how much work it
/// took, so a change to any stage can report its accuracy delta next to
/// its speed delta. The grid is the Fig. 19 five-volunteer study
/// population (default ExperimentConfig), each volunteer calibrated from a
/// clean capture and from a copy with one fault class injected at
/// moderate severity 0.5, the level `robustness_smoke` holds every class
/// to. Volunteer i gets the i-th of the classes that reach fusion: dropped
/// IMU samples, gyro bias, clock drift, swapped ears, burst noise. A last
/// cell calibrates the subject `uniq calibrate --seed 42` simulates.
/// Correlations are swept every 10 degrees. The caller picks the kernel
/// tier; the scorecard binary pins the scalar tier so the work counts
/// match on every host.
Scorecard runScorecard();

/// The versioned report (schema "uniq-scorecard-v1"): one object per cell
/// plus grid-wide summaries. A metric that is not finite is written as
/// null, which the gate reports as missing.
std::string scorecardJson(const Scorecard& card);

/// Gates `current` against `baseline` (both parsed scorecard reports).
/// Fidelity uses the bench gate's ratio-plus-floor rule: a metric fails
/// when it is worse than the baseline by more than its ratio AND by more
/// than its absolute floor. Work counts must match exactly. Returns one
/// line per failure; empty means the gate passes. A report that does not
/// parse as a scorecard is a failure too.
std::vector<std::string> compareScorecards(const obs::JsonValue& baseline,
                                           const obs::JsonValue& current);

}  // namespace uniq::eval
