// Pinned AoA answers on a seeded grid (paper Section 4.5, Figs. 21-22).
//
// 3 study subjects (population seed 2021) x 12 angles, a known-source chirp
// (Eq. 9) and an unknown white-noise source (Eq. 11), scored against each
// subject's ground-truth far-field table and against the population-average
// table. Two gates:
//  - every answer stays within 1e-6 degrees of the committed one, so a change
//    meant to move only rounding (a different correlation or magnitude
//    formula) is checked, not assumed;
//  - the median error and front/back accuracy of each cell stay inside
//    Fig. 21/22-style budgets, so a deliberate re-pin is still held to the
//    accuracy the paper's figures describe.
// A deliberate change of answers re-pins kPinned (the failure message
// prints the new table) and records the accuracy delta in CHANGES.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/near_far.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "head/hrtf_database.h"
#include "head/subject.h"

namespace uniq {
namespace {

constexpr std::size_t kSubjects = 3;
constexpr std::size_t kAngles = 12;

std::vector<double> trialAngles() {
  std::vector<double> angles;
  for (std::size_t i = 0; i < kAngles; ++i)
    angles.push_back(7.5 + 15.0 * static_cast<double>(i));
  return angles;
}

/// One cell of the grid: a subject, a template table and a source kind.
struct Cell {
  std::size_t subject;
  bool truthTable;  ///< subject's ground truth, else population average
  bool known;       ///< chirp + Eq. 9, else white noise + Eq. 11
};

std::vector<Cell> cells() {
  std::vector<Cell> out;
  for (std::size_t s = 0; s < kSubjects; ++s)
    for (const bool truth : {true, false})
      for (const bool known : {true, false}) out.push_back({s, truth, known});
  return out;
}

/// One cell's trials: recordings rendered from `truthDb`, answered with
/// `table`.
std::vector<eval::AoaTrial> runCell(const head::HrtfDatabase& truthDb,
                                    const core::FarFieldTable& table,
                                    bool known, std::uint64_t seed) {
  eval::AoaExperimentOptions opts;
  opts.trialAnglesDeg = trialAngles();
  opts.seed = seed;
  const auto kind =
      known ? eval::SignalKind::kChirp : eval::SignalKind::kWhiteNoise;
  return eval::runAoaTrials(truthDb, table, known, kind, opts);
}

std::string cellName(const Cell& c) {
  return "subject " + std::to_string(c.subject) +
         (c.truthTable ? " truth" : " average") +
         (c.known ? " known" : " unknown");
}

// Answers per cell, in cells() order, at trialAngles(). Known-source
// answers lie on the 1-degree search grid; unknown-source answers are
// interpolated delay crossings.
const double kPinned[kSubjects * 4][kAngles] = {
    // subject 0, truth table, known source
    {9, 23, 37, 53, 69, 84, 99, 113, 127, 142, 158, 172},
    // subject 0, truth table, unknown source
    {6.4704591141678982, 24.646090148719196, 36.531409657949403,
     49.940517647241101, 69.07920677461486, 83.779753450360658,
     97.853716729530163, 110.51320872774318, 128.86365419421287,
     142.22715882384091, 158.79537966885971, 174.00796978189155},
    // subject 0, average table, known source
    {172, 159, 33, 48, 62, 75, 67, 56, 46, 33, 20, 8},
    // subject 0, average table, unknown source
    {35.442438640328298, 41.283997590110957, 62.915644366447211,
     65.005632486900254, 72.088846559372016, 88.914941684533702,
     75.554960935016368, 85.619412798564284, 73.94050994918652,
     43.86087572776394, 149.7563118019599, 155.36680892357703},
    // subject 1, truth table, known source
    {9, 25, 41, 55, 71, 86, 98, 113, 127, 143, 157, 172},
    // subject 1, truth table, unknown source
    {7.9008795677833703, 22.661164868833126, 39.605558742906453,
     51.991165859491701, 71.709673764422448, 63.077005106744508,
     98.971044369398356, 111.81650486997506, 126.83636959689187,
     141.28387814396217, 158.70671965932817, 169.90102626775084},
    // subject 1, average table, known source
    {169, 154, 137, 120, 100, 88, 89, 106, 56, 140, 24, 172},
    // subject 1, average table, unknown source
    {171.70869488751788, 162.83618183928797, 155.03863313505298,
     128.18829076599056, 119.75553321496541, 110.01415657086268,
     50.350770445085281, 35.409118308850118, 21.733993061088501,
     21.481857946566418, 11.19204763197081, 169.39932110293151},
    // subject 2, truth table, known source
    {8, 23, 38, 51, 66, 82, 99, 112, 127, 142, 157, 171},
    // subject 2, truth table, unknown source
    {15.683293316474266, 15.444894699156611, 44.111734065357055,
     53.618466981275098, 76.418800254101185, 78.375197968711518,
     128.26709175149864, 112.63596545846644, 124.07570772062383,
     144.11127702380742, 157.50695852275808, 172.19067222152859},
    // subject 2, average table, known source
    {7, 19, 33, 45, 59, 73, 66, 123, 45, 148, 161, 173},
    // subject 2, average table, unknown source
    {166.61090419458432, 155.02514147337615, 23.557645146352023,
     52.718545677404023, 53.29567319256553, 85.989799298709087,
     100.97839907031872, 123.11393567824493, 132.61541978862357,
     149.54152872442572, 160.93172199474884, 160.80794697161616},
};

class AoaFidelity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::ExperimentConfig config;
    config.volunteerCount = kSubjects;
    const auto population = eval::makeStudyPopulation(config);
    ASSERT_EQ(population.size(), kSubjects);

    const head::HrtfDatabase averageDb(head::globalTemplateSubject());
    const auto averageTable = core::farTableFromDatabase(averageDb);

    // Same order as cells().
    trials_ = new std::vector<std::vector<eval::AoaTrial>>();
    for (std::size_t s = 0; s < kSubjects; ++s) {
      const head::HrtfDatabase truthDb(population[s].subject);
      const auto truthTable = core::farTableFromDatabase(truthDb);
      for (const auto* table : {&truthTable, &averageTable})
        for (const bool known : {true, false})
          trials_->push_back(runCell(truthDb, *table, known, 31 + s));
    }
  }
  static void TearDownTestSuite() {
    delete trials_;
    trials_ = nullptr;
  }

  /// Median absolute error and front/back accuracy over every subject's
  /// trials of one (table, source) kind.
  static std::pair<double, double> summary(bool truthTable, bool known) {
    std::vector<eval::AoaTrial> pooled;
    const auto all = cells();
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].truthTable == truthTable && all[i].known == known) {
        const auto& cell = (*trials_)[i];
        pooled.insert(pooled.end(), cell.begin(), cell.end());
      }
    return {eval::median(eval::absErrors(pooled)),
            eval::frontBackAccuracy(pooled)};
  }

  static std::vector<std::vector<eval::AoaTrial>>* trials_;
};

std::vector<std::vector<eval::AoaTrial>>* AoaFidelity::trials_ = nullptr;

TEST_F(AoaFidelity, AnswersMatchPinnedAngles) {
  const auto all = cells();
  ASSERT_EQ(trials_->size(), all.size());
  bool allMatch = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ((*trials_)[i].size(), kAngles);
    for (std::size_t a = 0; a < kAngles; ++a) {
      const double got = (*trials_)[i][a].estimatedDeg;
      EXPECT_NEAR(got, kPinned[i][a], 1e-6)
          << cellName(all[i]) << " at " << trialAngles()[a] << " deg";
      if (std::abs(got - kPinned[i][a]) > 1e-6) allMatch = false;
    }
  }
  if (!allMatch) {
    // The table to commit after a deliberate change of answers.
    std::string table;
    char buf[64];
    for (const auto& row : *trials_) {
      table += "    {";
      for (std::size_t a = 0; a < row.size(); ++a) {
        std::snprintf(buf, sizeof buf, "%s%.17g", a ? ", " : "",
                      row[a].estimatedDeg);
        table += buf;
      }
      table += "},\n";
    }
    ADD_FAILURE() << "answers now:\n" << table;
  }
}

// Budgets over the 36 trials of each (table, source) kind. Pinned answers
// give: known source, truth 0.5 deg median and 36/36 front/back, average
// 10 deg and 18/36; unknown source, truth 1.42 deg and 36/36, average
// 23.7 deg and 19/36. As in Figs. 21-22, matched templates localize to a
// few degrees and resolve front/back, and the population average does
// neither; the average's ceilings only catch a broken path.
TEST_F(AoaFidelity, KnownSourceWithinFig21Budget) {
  const auto [truthMedian, truthFrontBack] = summary(true, true);
  const auto [averageMedian, averageFrontBack] = summary(false, true);
  EXPECT_LE(truthMedian, 2.0);
  EXPECT_GE(truthFrontBack, 34.0 / 36.0);
  EXPECT_LE(averageMedian, 20.0);
  EXPECT_LT(truthMedian, averageMedian);
  EXPECT_GT(truthFrontBack, averageFrontBack);
}

TEST_F(AoaFidelity, UnknownSourceWithinFig22Budget) {
  const auto [truthMedian, truthFrontBack] = summary(true, false);
  const auto [averageMedian, averageFrontBack] = summary(false, false);
  EXPECT_LE(truthMedian, 4.0);
  EXPECT_GE(truthFrontBack, 34.0 / 36.0);
  EXPECT_LE(averageMedian, 40.0);
  EXPECT_LT(truthMedian, averageMedian);
  EXPECT_GT(truthFrontBack, averageFrontBack);
}

}  // namespace
}  // namespace uniq
