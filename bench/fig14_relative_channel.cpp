// Reproduces paper Figure 14: for an unknown ambient source, the relative
// channel between the two ear recordings shows multiple peaks (poor signal
// auto-correlation + pinna multipath), each proposing a candidate
// interaural delay.
#include <iostream>
#include <vector>

#include "core/aoa.h"
#include "dsp/correlation.h"
#include "dsp/peak_picking.h"
#include "eval/experiments.h"
#include "eval/reporting.h"
#include "sim/recorder.h"

using namespace uniq;

int main() {
  eval::printHeader(std::cout, "Figure 14",
                    "relative channel between the ears: multiple taps per "
                    "unknown source");

  const auto population = head::makePopulation(1, 2021);
  head::HrtfDatabase::Options dbOpts;
  const head::HrtfDatabase db(population[0], dbOpts);
  const sim::HardwareModel hardware;
  const sim::RoomModel room;
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 25.0;
  const sim::BinauralRecorder recorder(db, hardware, room, recOpts);

  Pcg32 rng(11);
  const auto signal = eval::makeSignal(eval::SignalKind::kWhiteNoise, 24000,
                                       48000.0, rng);
  const auto rec = recorder.recordFarField(40.0, signal, rng, false);

  auto rel = dsp::gccPhat(rec.left, rec.right);
  const double zeroLag = static_cast<double>(rec.right.size() - 1);

  // Print the +/- 1.5 ms neighborhood of zero lag.
  const auto window = static_cast<long>(1.5e-3 * 48000.0);
  std::vector<double> lagMs, value;
  for (long k = -window; k <= window; k += 2) {
    const auto idx = static_cast<std::size_t>(zeroLag + k);
    lagMs.push_back(static_cast<double>(k) / 48.0);  // ms at 48 kHz
    value.push_back(rel[idx]);
  }
  eval::printSeries(std::cout, "relative channel (source at 40 deg)",
                    {"lag_ms", "amplitude"}, {lagMs, value});

  const auto taps = dsp::findTaps(rel, core::kAoaPeakRelativeThreshold);
  std::cout << "peaks above threshold within +/-1.2 ms:\n";
  int shown = 0;
  for (const auto& tap : taps) {
    const double lag = tap.position - zeroLag;
    if (std::abs(lag) > 1.2e-3 * 48000.0) continue;
    std::cout << "  delta_t = " << -lag / 48.0 << " ms  (amplitude "
              << tap.amplitude << ")\n";
    ++shown;
  }
  std::cout << shown
            << " candidate interaural delays -> each maps to a front/back "
               "AoA pair (Section 4.5)\n";
  return 0;
}
