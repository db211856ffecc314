#include "eval/scorecard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <sstream>

#include "core/near_far.h"
#include "core/pipeline.h"
#include "dsp/kernels/kernels.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "sim/fault_injector.h"
#include "sim/trajectory.h"

namespace uniq::eval {

namespace {

using sim::FaultKind;
using Type = obs::JsonValue::Type;

constexpr const char* kSchema = "uniq-scorecard-v1";

constexpr FaultKind kFaultKinds[] = {
    FaultKind::kDroppedImuSamples,
    FaultKind::kGyroBias,
    FaultKind::kClockDrift,
    FaultKind::kSwappedEars,
    FaultKind::kBurstNoise,
};
constexpr double kFaultSeverity = 0.5;
constexpr std::uint64_t kFaultSeed = 0xD15EA5E;
constexpr double kCorrelationStepDeg = 10.0;

/// One gated fidelity metric: worse by more than `ratio` of the baseline
/// AND by more than `floor` (absolute, in the metric's unit) fails.
struct FidelityBudget {
  const char* key;
  bool higherIsBetter;
  double ratio;
  double floor;
};

// Errors take the bench gate's 25% ratio; correlations are bounded in
// [0, 1] and move little, so they get a tighter ratio with a small floor.
constexpr FidelityBudget kFidelityBudgets[] = {
    {"head_err_a_mm", false, 0.25, 0.5},
    {"head_err_b_mm", false, 0.25, 0.5},
    {"head_err_c_mm", false, 0.25, 0.5},
    {"loc_median_deg", false, 0.25, 0.5},
    {"near_corr", true, 0.05, 0.01},
    {"far_corr", true, 0.05, 0.01},
    {"aoa_unknown_median_deg", false, 0.25, 1.0},
};

constexpr const char* kWorkKeys[] = {
    "objective_evals",
    "fft_transforms",
    "fractional_shifts",
    "widened",
    "fusion_iterations",
};
constexpr const char* kRejectedSetKey = "rejected_set";

template <typename T>
using Fields = std::vector<std::pair<std::string, T>>;

double nearFieldCorrelation(const core::PersonalHrtf& personal,
                            const head::HrtfDatabase& truthDb) {
  const auto& near = personal.table.nearTable();
  // The table's entries sit at its median stop radius; a fallback table
  // carries none, so compare at the calibration gesture's typical reach.
  const double radius = near.medianRadiusM > 0.15 ? near.medianRadiusM : 0.35;
  std::vector<double> corr;
  for (double ang = 0.0; ang <= 180.0 + 1e-9; ang += kCorrelationStepDeg) {
    const auto truth = truthDb.nearField(ang, radius);
    corr.push_back(hrirSimilarity(near.at(ang), truth));
  }
  return mean(corr);
}

double farFieldCorrelation(const CalibratedVolunteer& run) {
  const auto series = correlationVsAngle(run, kCorrelationStepDeg);
  return 0.5 * (mean(series.uniqLeft) + mean(series.uniqRight));
}

/// The head fusion finds on `capture` when it rejects exactly `rejected`:
/// the pipeline's quality-gated measurements, the all-stop solve, then one
/// re-solve without the rejected stops, warm-started from the first, as a
/// solveRobust reject round runs it. nullopt when the capture leaves too
/// few stops to solve.
std::optional<head::HeadParameters> headUnderRejects(
    const sim::CalibrationCapture& capture,
    const std::vector<std::size_t>& rejected) {
  const core::CalibrationPipeline pipeline;
  const auto channels = pipeline.extractChannels(capture);
  auto measurements =
      core::CalibrationPipeline::toFusionMeasurements(capture, channels);
  std::erase_if(measurements, [&](const core::FusionMeasurement& m) {
    return channels[m.sourceIndex].quality.gated();
  });
  const core::SensorFusionOptions opts;
  if (measurements.size() < opts.minMeasurements) return std::nullopt;
  const core::SensorFusion fusion(opts);
  const auto all = fusion.solve(measurements);
  const auto removed =
      std::erase_if(measurements, [&](const core::FusionMeasurement& m) {
        return std::find(rejected.begin(), rejected.end(), m.sourceIndex) !=
               rejected.end();
      });
  if (removed == 0) return all.headParams;
  return fusion.solveIncremental(measurements, all.headParams).headParams;
}

void setHeadErr(double (&errMm)[3], const head::HeadParameters& head,
                const head::HeadParameters& truth) {
  errMm[0] = std::fabs(head.a - truth.a) * 1e3;
  errMm[1] = std::fabs(head.b - truth.b) * 1e3;
  errMm[2] = std::fabs(head.c - truth.c) * 1e3;
}

ScorecardCell scoreCell(const Volunteer& volunteer, std::string volunteerName,
                        sim::CalibrationCapture capture,
                        std::string captureName, std::size_t index,
                        const RejectPins& pins) {
  static obs::Counter& evals = obs::registry().counter("dsf.objective.evals");
  static obs::Counter& transforms = obs::registry().counter("fft.transforms");
  static obs::Counter& shifts =
      obs::registry().counter("dsp.fractional_shift.calls");
  ScorecardCell cell;
  cell.volunteer = std::move(volunteerName);
  cell.capture = std::move(captureName);

  const core::CalibrationPipeline pipeline;
  const std::uint64_t evalsBefore = evals.value();
  const std::uint64_t fftBefore = transforms.value();
  const std::uint64_t shiftsBefore = shifts.value();
  auto hrtf = pipeline.run(capture);
  cell.objectiveEvals = evals.value() - evalsBefore;
  cell.fftTransforms = transforms.value() - fftBefore;
  cell.fractionalShifts = shifts.value() - shiftsBefore;
  cell.rejectedSet = hrtf.fusion.rejectedSourceIndices;
  cell.widened = hrtf.fusion.widened ? 1 : 0;
  cell.fusionIterations = hrtf.fusion.iterations;
  cell.rejectMarginDeg = hrtf.fusion.rejectMarginDeg;
  cell.status = core::pipelineStatusName(hrtf.status);

  const auto& truth = volunteer.subject.headParams;
  setHeadErr(cell.unpinnedHeadErrMm, hrtf.headParams, truth);
  setHeadErr(cell.headErrMm, hrtf.headParams, truth);
  const auto pin = pins.find(cell.volunteer + "/" + cell.capture);
  if (pin != pins.end() && pin->second != cell.rejectedSet) {
    if (const auto pinned = headUnderRejects(capture, pin->second))
      setHeadErr(cell.headErrMm, *pinned, truth);
  }

  const CalibratedVolunteer run{volunteer, std::move(hrtf), std::move(capture)};
  cell.locMedianDeg = median(localizationAccuracy(run).absErrorDeg);
  cell.farCorr = farFieldCorrelation(run);

  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = run.personal.table.sampleRate();
  const head::HrtfDatabase truthDb(volunteer.subject, dbOpts);
  cell.nearCorr = nearFieldCorrelation(run.personal, truthDb);

  AoaExperimentOptions aoaOpts;
  aoaOpts.seed = 500 + index * 17;  // fig22's per-volunteer seed
  const auto& far = run.personal.table.farTable();
  const auto kind = SignalKind::kWhiteNoise;
  const auto trials = runAoaTrials(truthDb, far, false, kind, aoaOpts);
  cell.aoaMedianDeg = median(absErrors(trials));
  return cell;
}

// A non-finite metric is written as JSON null, so it reads back as missing
// and fails the gate instead of making the report unparsable.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string number(std::uint64_t v) { return std::to_string(v); }

Fields<double> fidelityOf(const ScorecardCell& c) {
  return {
      {"head_err_a_mm", c.headErrMm[0]},
      {"head_err_b_mm", c.headErrMm[1]},
      {"head_err_c_mm", c.headErrMm[2]},
      {"loc_median_deg", c.locMedianDeg},
      {"near_corr", c.nearCorr},
      {"far_corr", c.farCorr},
      {"aoa_unknown_median_deg", c.aoaMedianDeg},
  };
}

Fields<double> unpinnedOf(const ScorecardCell& c) {
  return {
      {"unpinned_head_err_a_mm", c.unpinnedHeadErrMm[0]},
      {"unpinned_head_err_b_mm", c.unpinnedHeadErrMm[1]},
      {"unpinned_head_err_c_mm", c.unpinnedHeadErrMm[2]},
  };
}

Fields<std::uint64_t> workOf(const ScorecardCell& c) {
  return {
      {"objective_evals", c.objectiveEvals},
      {"fft_transforms", c.fftTransforms},
      {"fractional_shifts", c.fractionalShifts},
      {"widened", c.widened},
      {"fusion_iterations", c.fusionIterations},
  };
}

/// `[i, j, ...]`.
std::string setJson(const std::vector<std::size_t>& set) {
  std::string out = "[";
  for (std::size_t k = 0; k < set.size(); ++k)
    out += (k > 0 ? ", " : "") + std::to_string(set[k]);
  return out + "]";
}

/// `{"k": v, ...}` for one cell section, then the `reported` fields, then
/// `tail` (further `"key": value` text, verbatim).
template <typename T>
std::string objectJson(const Fields<T>& fields,
                       const Fields<double>& reported = {},
                       const std::string& tail = "") {
  std::string out = "{";
  for (std::size_t k = 0; k < fields.size(); ++k) {
    if (k > 0) out += ", ";
    out += '"' + fields[k].first + "\": " + number(fields[k].second);
  }
  for (const auto& [key, value] : reported)
    out += ", \"" + key + "\": " + number(value);
  if (!tail.empty()) out += ", " + tail;
  return out + "}";
}

const obs::JsonValue* member(const obs::JsonValue& v, const char* key,
                             Type type) {
  const auto* m = v.find(key);
  return m && m->type == type ? m : nullptr;
}

/// The number at `cell.section.key`, or nullptr.
const obs::JsonValue* numberAt(const obs::JsonValue& cell, const char* section,
                               const char* key) {
  const auto* s = member(cell, section, Type::kObject);
  return s ? member(*s, key, Type::kNumber) : nullptr;
}

std::string cellName(const obs::JsonValue& cell) {
  const auto* v = member(cell, "volunteer", Type::kString);
  const auto* c = member(cell, "capture", Type::kString);
  return (v ? v->str : "?") + "/" + (c ? c->str : "?");
}

/// The `work.rejected_set` of a parsed cell, or nullopt when it is missing
/// or not an array of non-negative integers.
std::optional<std::vector<std::size_t>> rejectedSetOf(
    const obs::JsonValue& cell) {
  const auto* work = member(cell, "work", Type::kObject);
  const auto* set = work ? member(*work, kRejectedSetKey, Type::kArray)
                         : nullptr;
  if (!set) return std::nullopt;
  std::vector<std::size_t> out;
  for (const auto& item : set->items) {
    if (item.type != Type::kNumber || !(item.number >= 0.0) ||
        item.number != std::floor(item.number))
      return std::nullopt;
    out.push_back(static_cast<std::size_t>(item.number));
  }
  return out;
}

}  // namespace

RejectPins rejectPinsOf(const obs::JsonValue& report) {
  RejectPins pins;
  const auto* cells = member(report, "cells", Type::kArray);
  if (!cells) return pins;
  for (const auto& cell : cells->items)
    if (auto set = rejectedSetOf(cell)) pins[cellName(cell)] = std::move(*set);
  return pins;
}

Scorecard runScorecard(const RejectPins& pins) {
  Scorecard card;
  card.isa = dsp::kernels::isaName(dsp::kernels::activeIsa());
  const auto population = makeStudyPopulation(ExperimentConfig{});
  const sim::MeasurementSession session;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const auto& volunteer = population[i];
    auto clean = session.run(volunteer.subject, volunteer.gesture);

    const auto kind = kFaultKinds[i % std::size(kFaultKinds)];
    sim::FaultInjector injector(kFaultSeed);
    injector.add(kind, kFaultSeverity);
    auto faulted = injector.apply(clean);
    const std::string faultName = sim::faultKindName(kind);

    const auto& name = volunteer.subject.name;
    card.cells.push_back(
        scoreCell(volunteer, name, std::move(clean), "clean", i, pins));
    card.cells.push_back(
        scoreCell(volunteer, name, std::move(faulted), faultName, i, pins));
  }
  // The subject `uniq calibrate --seed 42` simulates, the repository's
  // reference calibration, so its work counts are pinned too.
  Volunteer reference;
  reference.subject = head::makePopulation(1, 42)[0];
  reference.gesture = sim::defaultGesture();
  auto capture = session.run(reference.subject, reference.gesture);
  const std::size_t index = population.size();
  card.cells.push_back(scoreCell(reference, "calibrate-seed-42",
                                 std::move(capture), "clean", index, pins));
  return card;
}

std::string scorecardJson(const Scorecard& card) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kSchema << "\",\n";
  os << "  \"isa\": \"" << obs::jsonEscape(card.isa) << "\",\n";
  os << "  \"cells\": [";
  for (std::size_t i = 0; i < card.cells.size(); ++i) {
    const auto& c = card.cells[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"volunteer\": \"" << obs::jsonEscape(c.volunteer) << "\", ";
    os << "\"capture\": \"" << obs::jsonEscape(c.capture) << "\", ";
    os << "\"status\": \"" << obs::jsonEscape(c.status) << "\",\n";
    os << "     \"fidelity\": " << objectJson(fidelityOf(c), unpinnedOf(c))
       << ",\n";
    os << "     \"work\": "
       << objectJson(workOf(c), {{"reject_margin_deg", c.rejectMarginDeg}},
                     std::string("\"") + kRejectedSetKey +
                         "\": " + setJson(c.rejectedSet))
       << "}";
  }
  os << "\n  ],\n  \"summary\": {";
  // Grid-wide means of the fidelity metrics and totals of the work counts,
  // for reading a delta at a glance; the gate compares cells.
  const auto n = static_cast<double>(card.cells.size());
  bool first = true;
  for (const auto& budget : kFidelityBudgets) {
    double sum = 0.0;
    for (const auto& c : card.cells)
      for (const auto& [key, value] : fidelityOf(c))
        if (key == budget.key) sum += value;
    const double mean = n > 0 ? sum / n : 0.0;
    os << (first ? "\n" : ",\n");
    os << "    \"mean_" << budget.key << "\": " << number(mean);
    first = false;
  }
  for (const char* key : kWorkKeys) {
    std::uint64_t sum = 0;
    for (const auto& c : card.cells)
      for (const auto& [k, value] : workOf(c))
        if (k == key) sum += value;
    os << ",\n    \"total_" << key << "\": " << sum;
  }
  std::size_t rejected = 0;
  for (const auto& c : card.cells) rejected += c.rejectedSet.size();
  os << ",\n    \"total_rejected_stops\": " << rejected;
  os << "\n  }\n}\n";
  return os.str();
}

std::vector<std::string> compareScorecards(const obs::JsonValue& baseline,
                                           const obs::JsonValue& current) {
  std::vector<std::string> failures;
  for (const auto* report : {&baseline, &current}) {
    const auto* schema = member(*report, "schema", Type::kString);
    const auto* cells = member(*report, "cells", Type::kArray);
    if (schema && schema->str == kSchema && cells) continue;
    const std::string which = report == &baseline ? "baseline" : "current";
    failures.push_back(which + ": not a " + kSchema + " report");
  }
  if (!failures.empty()) return failures;
  const auto* baseIsa = member(baseline, "isa", Type::kString);
  const auto* curIsa = member(current, "isa", Type::kString);
  if (!baseIsa || !curIsa || baseIsa->str != curIsa->str)
    failures.push_back("kernel tier differs from the baseline's");

  const auto& baseCells = baseline.find("cells")->items;
  const auto& curCells = current.find("cells")->items;
  if (baseCells.size() != curCells.size()) {
    const std::string have = std::to_string(curCells.size());
    const std::string want = std::to_string(baseCells.size());
    failures.push_back("cell count " + have + " != baseline " + want);
  }

  for (const auto& base : baseCells) {
    const std::string name = cellName(base);
    const obs::JsonValue* cur = nullptr;
    for (const auto& c : curCells)
      if (cellName(c) == name) cur = &c;
    if (!cur) {
      failures.push_back(name + ": missing from the current report");
      continue;
    }
    for (const auto& budget : kFidelityBudgets) {
      const auto* b = numberAt(base, "fidelity", budget.key);
      const auto* c = numberAt(*cur, "fidelity", budget.key);
      if (!b || !c) {
        failures.push_back(name + ": fidelity." + budget.key +
                           " missing or null");
        continue;
      }
      const double diff = c->number - b->number;
      const double worse = budget.higherIsBetter ? -diff : diff;
      if (worse <= budget.ratio * std::fabs(b->number)) continue;
      if (worse <= budget.floor) continue;
      std::string line = name + ": " + budget.key + " " + number(c->number);
      line += " vs baseline " + number(b->number);
      line += " (budget " + number(100.0 * budget.ratio) + "% and ";
      failures.push_back(line + number(budget.floor) + ")");
    }
    for (const char* key : kWorkKeys) {
      const auto* b = numberAt(base, "work", key);
      const auto* c = numberAt(*cur, "work", key);
      if (!b || !c) {
        failures.push_back(name + ": work." + key + " missing");
      } else if (b->number != c->number) {
        std::string line = name + ": " + key + " " + number(c->number);
        failures.push_back(line + " != baseline " + number(b->number));
      }
    }
    const auto baseSet = rejectedSetOf(base);
    const auto curSet = rejectedSetOf(*cur);
    if (!baseSet || !curSet) {
      failures.push_back(name + ": work." + kRejectedSetKey + " missing");
    } else if (*baseSet != *curSet) {
      failures.push_back(name + ": " + kRejectedSetKey + " " +
                         setJson(*curSet) + " != baseline " +
                         setJson(*baseSet));
    }
  }
  return failures;
}

}  // namespace uniq::eval
