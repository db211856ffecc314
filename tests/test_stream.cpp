// Streaming-calibration tests: the StreamingSession's equality contract
// against the batch pipeline (bitwise-identical tables when every stop
// arrives, in any order), synchronous push() (state exact on return),
// incremental solves that run only for a reader and do not depend on when
// it reads, cancellation, coverage monotonicity, the deterministic
// convergence-based early stop, and the stream.* metrics surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/sensor_fusion.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "sim/measurement_session.h"
#include "stream/streaming_session.h"
#include "test_util.h"

namespace uniq {
namespace {

sim::CalibrationCapture makeCapture(std::uint64_t seed,
                                    std::size_t stops = 10) {
  const auto subject = head::makePopulation(1, seed)[0];
  const sim::MeasurementSession session;
  auto gesture = sim::defaultGesture();
  gesture.stops = stops;
  return session.run(subject, gesture);
}

/// The streaming equality contract from docs/STREAMING.md: the same head
/// estimate and bitwise-identical tables.
void expectTablesBitwiseEqual(const core::PersonalHrtf& a,
                              const core::PersonalHrtf& b) {
  EXPECT_EQ(a.headParams.a, b.headParams.a);
  EXPECT_EQ(a.headParams.b, b.headParams.b);
  EXPECT_EQ(a.headParams.c, b.headParams.c);
  test::expectTablesBitwiseEqual(a.table, b.table);
}

// --- SensorFusion::solveIncremental -------------------------------------

TEST(SolveIncremental, WarmSeedSolvesAndEmptyIsUnusable) {
  const auto capture = makeCapture(11);
  const core::CalibrationPipeline pipeline;
  const auto channels = pipeline.extractChannels(capture);
  const auto measurements =
      core::CalibrationPipeline::toFusionMeasurements(capture, channels);
  ASSERT_GE(measurements.size(), 6u);

  const core::SensorFusion fusion;
  EXPECT_FALSE(fusion.solveIncremental({}).usable);

  const auto cold = fusion.solveIncremental(measurements);
  EXPECT_TRUE(cold.usable);
  EXPECT_EQ(cold.restartsUsed, 1u);

  // Seeding with the cold answer must stay at (or improve on) it, and the
  // same instance's geometry cache makes the re-solve a warm pass.
  const auto warm = fusion.solveIncremental(measurements, cold.headParams);
  EXPECT_TRUE(warm.usable);
  EXPECT_LE(warm.finalObjectiveDeg2, cold.finalObjectiveDeg2 + 1e-9);
}

// --- StreamingSession ---------------------------------------------------

TEST(StreamingSession, FullReplayMatchesBatchBitwise) {
  const auto capture = makeCapture(21, 10);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  for (std::size_t i = 0; i < capture.stops.size(); ++i)
    ASSERT_TRUE(session.push(capture.stops[i], i));
  const auto streamed = session.finalize();

  const core::CalibrationPipeline pipeline;
  const auto batch = pipeline.run(capture);

  EXPECT_EQ(streamed.personal.status, batch.status);
  EXPECT_EQ(streamed.stopsIngested, capture.stops.size());
  expectTablesBitwiseEqual(streamed.personal, batch);
}

TEST(StreamingSession, OutOfOrderArrivalMatchesBatchBitwise) {
  const auto capture = makeCapture(22, 10);
  // A fixed shuffle: late IMU packets and retransmits deliver stops out of
  // order; seq re-sorting at finalize must erase any trace of that.
  const std::size_t order[] = {7, 2, 9, 0, 5, 3, 8, 1, 6, 4};
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  for (const std::size_t i : order)
    ASSERT_TRUE(session.push(capture.stops[i], i));
  const auto streamed = session.finalize();

  const core::CalibrationPipeline pipeline;
  const auto batch = pipeline.run(capture);
  EXPECT_EQ(streamed.personal.status, batch.status);
  expectTablesBitwiseEqual(streamed.personal, batch);
}

TEST(StreamingSession, CancelMidStreamFallsBackAborted) {
  const auto capture = makeCapture(23, 10);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(session.push(capture.stops[i], i));
  session.cancel();
  EXPECT_FALSE(session.push(capture.stops[4], 4));  // refused after cancel

  obs::RunReport report;
  const auto out = session.finalize(&report);
  EXPECT_TRUE(out.personal.aborted);
  EXPECT_EQ(out.personal.status, core::PipelineStatus::kFailed);
  // Same contract as a batch abort: the fallback table is still usable.
  EXPECT_FALSE(out.personal.table.farTable().byDegree.empty());
  EXPECT_FALSE(out.personal.diagnostics.empty());
}

TEST(StreamingSession, EmptySessionFinalizesToFallback) {
  const auto capture = makeCapture(24, 6);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  const auto out = session.finalize();
  EXPECT_EQ(out.personal.status, core::PipelineStatus::kFailed);
  EXPECT_FALSE(out.personal.aborted);  // not cancelled, just empty
  EXPECT_FALSE(out.personal.table.farTable().byDegree.empty());
}

TEST(StreamingSession, SnapshotReadsFromAnotherThreadDuringPushes) {
  // A UI thread polls coverage()/converged() while the producer pushes:
  // reads take the snapshot lock only and see the stop count grow.
  const auto capture = makeCapture(29, 12);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  std::atomic<bool> done{false};
  bool monotone = true;
  std::thread reader([&] {
    std::size_t last = 0;
    while (!done.load()) {
      const auto snap = session.coverage();
      monotone = monotone && snap.stopsExtracted >= last;
      last = snap.stopsExtracted;
      (void)session.converged();
    }
  });
  for (std::size_t i = 0; i < capture.stops.size(); ++i)
    EXPECT_TRUE(session.push(capture.stops[i], i));
  done.store(true);
  reader.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(session.coverage().stopsExtracted, capture.stops.size());
  EXPECT_NE(session.finalize().personal.status,
            core::PipelineStatus::kFailed);
}

TEST(StreamingSession, CoverageIsMonotoneAndHintsNameThinArcs) {
  const auto capture = makeCapture(25, 12);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));

  double lastCovered = 0.0;
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    ASSERT_TRUE(session.push(capture.stops[i], i));
    const auto snap = session.coverage();
    // push() folds the stop in before returning: no waiting.
    EXPECT_EQ(snap.stopsExtracted, i + 1);
    // Latched bins: the covered fraction never decreases over a session.
    EXPECT_GE(snap.coveredFraction, lastCovered) << "after stop " << i;
    lastCovered = snap.coveredFraction;
    EXPECT_FALSE(snap.hint.empty());
    EXPECT_EQ(snap.stopsIngested, i + 1);
  }
  EXPECT_GT(lastCovered, 0.0);

  const auto out = session.finalize();
  EXPECT_NE(out.personal.status, core::PipelineStatus::kFailed);
}

/// Push `capture`'s stops in order until the session converges; returns
/// how many were pushed.
std::size_t pushUntilConverged(stream::StreamingSession& session,
                               const sim::CalibrationCapture& capture) {
  std::size_t pushed = 0;
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    EXPECT_TRUE(session.push(capture.stops[i], i));
    ++pushed;
    EXPECT_EQ(session.coverage().stopsExtracted, i + 1);
    if (session.converged()) break;
  }
  return pushed;
}

TEST(StreamingSession, ConvergenceEarlyStopIsDegradedAtWorst) {
  // A full-length sweep on the default convergence gates: the running
  // estimate must stabilize before the capture runs out, and finalizing at
  // that point — with stops left unpushed — still personalizes (degraded
  // at worst, never the failed fallback), at the same push on every run.
  const auto capture = makeCapture(26, 36);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));

  const std::size_t pushed = pushUntilConverged(session, capture);
  EXPECT_TRUE(session.converged())
      << "full-length capture should converge before the sweep ends";
  EXPECT_LT(pushed, capture.stops.size());

  // push() is synchronous, so the latch is a function of the pushed stops
  // alone: a second session over the same capture stops at the same push.
  stream::StreamingSession again(stream::CaptureHeader::fromCapture(capture));
  EXPECT_EQ(pushUntilConverged(again, capture), pushed);
  EXPECT_EQ(again.coverage().incrementalSolves,
            session.coverage().incrementalSolves);

  const auto out = session.finalize();
  EXPECT_TRUE(out.convergedEarly);
  EXPECT_EQ(out.stopsIngested, pushed);
  EXPECT_GT(out.timeToConvergeMs, 0.0);
  EXPECT_NE(out.personal.status, core::PipelineStatus::kFailed);
  EXPECT_GE(out.incrementalSolves, stream::kConvergeStreak);
}

TEST(StreamingSession, FinalizeObservesEachStageOnce) {
  // A streaming run counts in the same per-stage histograms as a batch
  // run: one observation per stage, extraction as the per-stop total.
  const auto& stages = test::pipelineStages();
  std::vector<obs::MetricsSnapshot::HistogramEntry> before;
  for (const auto& stage : stages) before.push_back(test::stageHistogram(stage));

  const auto capture = makeCapture(28, 8);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  for (std::size_t i = 0; i < capture.stops.size(); ++i)
    ASSERT_TRUE(session.push(capture.stops[i], i));
  obs::RunReport report;
  const auto out = session.finalize(&report);
  ASSERT_NE(out.personal.status, core::PipelineStatus::kFailed);

  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto after = test::stageHistogram(stages[i]);
    EXPECT_EQ(after.count, before[i].count + 1) << stages[i];
    ASSERT_NE(report.find(stages[i]), nullptr) << stages[i];
    EXPECT_NEAR(after.sum - before[i].sum, report.find(stages[i])->wallMs,
                1e-9)
        << stages[i];
  }
}

std::uint64_t counterValue(const char* name) {
  return obs::registry().snapshot().counter(name);
}

TEST(StreamingSession, ExportsStreamMetrics) {
  // Solves run only for a reader: a session nobody reads until finalize
  // runs no incremental solve and no objective evaluation while it is fed.
  const auto capture = makeCapture(27, 8);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  const auto ingestedBefore = counterValue("stream.stops.ingested");
  const auto restartsBefore =
      counterValue("stream.solve.incremental_restarts");
  const auto evalsBefore = counterValue("dsf.objective.evals");
  for (std::size_t i = 0; i < capture.stops.size(); ++i)
    ASSERT_TRUE(session.push(capture.stops[i], i));
  EXPECT_EQ(counterValue("stream.stops.ingested") - ingestedBefore,
            capture.stops.size());
  EXPECT_EQ(counterValue("stream.solve.incremental_restarts"),
            restartsBefore);
  EXPECT_EQ(counterValue("dsf.objective.evals"), evalsBefore);

  const auto finalizedBefore = counterValue("stream.sessions.finalized");
  obs::RunReport report;
  const auto out = session.finalize(&report);
  EXPECT_EQ(out.incrementalSolves, 0u);
  EXPECT_EQ(counterValue("stream.solve.incremental_restarts"),
            restartsBefore);  // finalize drops the queued solves
  EXPECT_EQ(counterValue("stream.sessions.finalized") - finalizedBefore, 1u);

  // The streaming finalize fills the report like a batch run, with the
  // accumulated per-stop extraction time on the "extract" stage.
  ASSERT_NE(report.find("extract"), nullptr);
  EXPECT_GT(report.find("extract")->wallMs, 0.0);
  ASSERT_NE(report.find("fusion"), nullptr);

  // Read after every push, the session runs one solve per usable push from
  // the third usable stop on.
  stream::StreamingSession read(stream::CaptureHeader::fromCapture(capture));
  const auto readBefore = counterValue("stream.solve.incremental_restarts");
  std::size_t expectedSolves = 0, lastUsable = 0;
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    ASSERT_TRUE(read.push(capture.stops[i], i));
    const auto snap = read.coverage();
    if (snap.stopsUsable > lastUsable && snap.stopsUsable >= 3)
      ++expectedSolves;
    lastUsable = snap.stopsUsable;
    EXPECT_EQ(snap.incrementalSolves, expectedSolves) << "after stop " << i;
  }
  EXPECT_GE(expectedSolves, 1u);
  EXPECT_EQ(counterValue("stream.solve.incremental_restarts") - readBefore,
            expectedSolves);
  EXPECT_EQ(read.finalize().incrementalSolves, expectedSolves);
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(StreamingSession, ReadTimingDoesNotChangeTheLiveEstimate) {
  // Queued solves replay with the inputs and warm seed of their push, so a
  // session read once at the end reaches the live estimate, solve count
  // and convergence of one read after every push, bit for bit.
  const auto capture = makeCapture(26, 36);
  stream::StreamingSession eager(stream::CaptureHeader::fromCapture(capture));
  stream::StreamingSession lazy(stream::CaptureHeader::fromCapture(capture));
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    ASSERT_TRUE(eager.push(capture.stops[i], i));
    (void)eager.coverage();
    ASSERT_TRUE(lazy.push(capture.stops[i], i));
  }
  const auto a = eager.coverage();
  const auto b = lazy.coverage();
  EXPECT_TRUE(sameBits(a.headEstimate.a, b.headEstimate.a));
  EXPECT_TRUE(sameBits(a.headEstimate.b, b.headEstimate.b));
  EXPECT_TRUE(sameBits(a.headEstimate.c, b.headEstimate.c));
  EXPECT_TRUE(sameBits(a.objectiveDeg2, b.objectiveDeg2));
  EXPECT_EQ(a.incrementalSolves, b.incrementalSolves);
  EXPECT_GT(a.incrementalSolves, 0u);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.hint, b.hint);

  const auto outA = eager.finalize();
  const auto outB = lazy.finalize();
  EXPECT_EQ(outA.incrementalSolves, outB.incrementalSolves);
  EXPECT_EQ(outA.convergedEarly, outB.convergedEarly);
  expectTablesBitwiseEqual(outA.personal, outB.personal);
}

}  // namespace
}  // namespace uniq
