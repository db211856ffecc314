// Calibration scorecard gate (ctest `calibration_scorecard`): runs the
// eval::runScorecard grid — the Fig. 19 five volunteers, each calibrated
// from a clean and a moderately fault-injected capture — on the scalar
// kernel tier, and gates it against the committed baseline: fidelity by
// ratio plus floor, work counts (objective evaluations, FFT transforms,
// fractional shifts, rejected stops, widened re-solves, fusion iterations)
// exactly; each cell's reject margin is reported beside them, ungated. A
// plain main() so the binary doubles as the tool that re-baselines:
//
//   calibration_scorecard BASELINE.json
//   calibration_scorecard BASELINE.json --write-baseline
//
// Exit codes: 0 pass (or baseline written), 1 gate failure, 2 bad input.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "dsp/kernels/kernels.h"
#include "eval/scorecard.h"
#include "obs/json.h"

using namespace uniq;

int main(int argc, char** argv) {
  const bool writeBaseline =
      argc == 3 && std::string(argv[2]) == "--write-baseline";
  if (argc != 2 && !writeBaseline) {
    std::cerr << "usage: calibration_scorecard BASELINE.json "
                 "[--write-baseline]\n";
    return 2;
  }
  const std::string baselinePath = argv[1];

  // Full-pipeline output is bitwise equal only within one kernel tier, and
  // the scalar tier exists on every host.
  dsp::kernels::setIsaOverride(dsp::kernels::Isa::kScalar);
  const std::string report = eval::scorecardJson(eval::runScorecard());
  std::cout << report;
  if (writeBaseline) {
    std::ofstream out(baselinePath);
    out << report;
    if (!out) {
      std::cerr << "cannot write " << baselinePath << "\n";
      return 2;
    }
    std::cout << "baseline written to " << baselinePath << "\n";
    return 0;
  }

  std::ifstream in(baselinePath);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto baseline = obs::parseJson(text.str(), &error);
  if (!in || !baseline) {
    std::cerr << "cannot read " << baselinePath << ": " << error << "\n";
    return 2;
  }
  const auto current = obs::parseJson(report, &error);
  if (!current) {
    std::cerr << "the report does not parse: " << error << "\n";
    return 2;
  }
  const auto failures = eval::compareScorecards(*baseline, *current);
  for (const auto& f : failures) std::cout << "FAIL: " << f << "\n";
  if (failures.empty()) {
    std::cout << "calibration scorecard: pass\n";
    return 0;
  }
  std::cout << "calibration scorecard: " << failures.size() << " failure(s)\n";
  return 1;
}
