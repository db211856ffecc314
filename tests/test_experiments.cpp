#include "eval/experiments.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/near_far.h"
#include "dsp/signal_generators.h"
#include "eval/metrics.h"
#include "eval/scorecard.h"

namespace uniq::eval {
namespace {

TEST(StudyPopulation, FiveVolunteersWithConstrainedTail) {
  ExperimentConfig config;
  const auto pop = makeStudyPopulation(config);
  ASSERT_EQ(pop.size(), 5u);
  // Volunteers 4 and 5 use the constrained-arm profile.
  EXPECT_EQ(pop[0].gesture.armDroopM, 0.0);
  EXPECT_EQ(pop[1].gesture.armDroopM, 0.0);
  EXPECT_EQ(pop[2].gesture.armDroopM, 0.0);
  EXPECT_GT(pop[3].gesture.armDroopM, 0.0);
  EXPECT_GT(pop[4].gesture.armDroopM, 0.0);
}

TEST(StudyPopulation, Deterministic) {
  ExperimentConfig config;
  const auto a = makeStudyPopulation(config);
  const auto b = makeStudyPopulation(config);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].subject.pinnaSeed, b[i].subject.pinnaSeed);
}

TEST(MakeSignal, AllKindsProduceEnergy) {
  Pcg32 rng(1);
  for (auto kind : {SignalKind::kWhiteNoise, SignalKind::kMusic,
                    SignalKind::kSpeech, SignalKind::kChirp}) {
    Pcg32 local = rng.fork(static_cast<std::uint64_t>(kind));
    const auto sig = makeSignal(kind, 4800, 48000.0, local);
    EXPECT_EQ(sig.size(), 4800u) << signalKindName(kind);
    EXPECT_GT(dsp::rms(sig), 0.01) << signalKindName(kind);
  }
}

TEST(MakeSignal, NamesAreStable) {
  EXPECT_STREQ(signalKindName(SignalKind::kWhiteNoise), "white-noise");
  EXPECT_STREQ(signalKindName(SignalKind::kMusic), "music");
  EXPECT_STREQ(signalKindName(SignalKind::kSpeech), "speech");
  EXPECT_STREQ(signalKindName(SignalKind::kChirp), "chirp");
}

TEST(AoaTrials, TruthTemplatesNearPerfectOnChirp) {
  head::Subject s;
  s.headParams = {0.076, 0.107, 0.094};
  s.pinnaSeed = 91;
  head::HrtfDatabase::Options dbOpts;
  const head::HrtfDatabase db(s, dbOpts);
  const auto table = core::farTableFromDatabase(db);
  AoaExperimentOptions opts;
  opts.trialAnglesDeg = {30.0, 90.0, 150.0};
  const auto trials =
      runAoaTrials(db, table, true, SignalKind::kChirp, opts);
  ASSERT_EQ(trials.size(), 3u);
  for (const auto& t : trials) {
    EXPECT_LT(t.absErrorDeg, 8.0) << t.truthDeg;
    EXPECT_TRUE(t.frontBackCorrect);
  }
  EXPECT_DOUBLE_EQ(frontBackAccuracy(trials), 1.0);
  EXPECT_EQ(absErrors(trials).size(), 3u);
}

TEST(AoaTrials, FrontBackAccuracyCounts) {
  std::vector<AoaTrial> trials(4);
  trials[0].frontBackCorrect = true;
  trials[1].frontBackCorrect = false;
  trials[2].frontBackCorrect = true;
  trials[3].frontBackCorrect = true;
  EXPECT_DOUBLE_EQ(frontBackAccuracy(trials), 0.75);
  EXPECT_DOUBLE_EQ(frontBackAccuracy({}), 0.0);
}

Scorecard oneCellCard() {
  Scorecard card;
  card.isa = "scalar";
  ScorecardCell cell;
  cell.volunteer = "v1";
  cell.capture = "clean";
  cell.status = "ok";
  cell.headErrMm[0] = 1.0;
  cell.nearCorr = 0.9;
  cell.objectiveEvals = 40;
  card.cells.push_back(cell);
  return card;
}

std::vector<std::string> gate(const Scorecard& baseline,
                              const Scorecard& current) {
  const auto b = obs::parseJson(scorecardJson(baseline));
  const auto c = obs::parseJson(scorecardJson(current));
  EXPECT_TRUE(b && c);
  return b && c ? compareScorecards(*b, *c) : std::vector<std::string>{};
}

TEST(Scorecard, GatesFidelityByRatioAndFloorAndWorkExactly) {
  const auto baseline = oneCellCard();
  auto current = baseline;
  EXPECT_TRUE(gate(baseline, current).empty());
  // 1.0 -> 1.4 mm is over the 25% ratio but inside the 0.5 mm floor;
  // 1.0 -> 1.6 mm is over both.
  current.cells[0].headErrMm[0] = 1.4;
  EXPECT_TRUE(gate(baseline, current).empty());
  current.cells[0].headErrMm[0] = 1.6;
  EXPECT_EQ(gate(baseline, current).size(), 1u);
  current.cells[0].headErrMm[0] = 1.0;
  current.cells[0].objectiveEvals = 39;  // fewer is a mismatch too
  EXPECT_EQ(gate(baseline, current).size(), 1u);
}

TEST(Scorecard, NonFiniteMetricIsWrittenAsNullAndFailsTheGate) {
  const auto baseline = oneCellCard();
  auto current = baseline;
  current.cells[0].nearCorr = std::nan("");
  current.cells[0].headErrMm[0] = HUGE_VAL;
  const auto json = scorecardJson(current);
  std::string error;
  ASSERT_TRUE(obs::parseJson(json, &error)) << error;
  const auto failures = gate(baseline, current);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].find("head_err_a_mm missing or null"),
            std::string::npos);
  EXPECT_NE(failures[1].find("near_corr missing or null"), std::string::npos);
}

}  // namespace
}  // namespace uniq::eval
