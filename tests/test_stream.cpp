// Streaming-calibration tests: the BoundedQueue dataflow edge (FIFO,
// backpressure, close semantics), the StreamingSession's equality contract
// against the batch pipeline (bitwise-identical tables when every stop
// arrives, in any order), cancellation, coverage monotonicity, the
// convergence-based early stop, and the stream.* metrics surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/sensor_fusion.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "sim/measurement_session.h"
#include "stream/bounded_queue.h"
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

/// Bitwise table equality: exact double comparison on every HRIR sample and
/// tap position of both tiers, plus the head estimate. This is the
/// streaming equality contract from docs/STREAMING.md — not "close", equal.
void expectTablesBitwiseEqual(const core::PersonalHrtf& a,
                              const core::PersonalHrtf& b) {
  EXPECT_EQ(a.headParams.a, b.headParams.a);
  EXPECT_EQ(a.headParams.b, b.headParams.b);
  EXPECT_EQ(a.headParams.c, b.headParams.c);

  const auto& an = a.table.nearTable();
  const auto& bn = b.table.nearTable();
  ASSERT_EQ(an.byDegree.size(), bn.byDegree.size());
  for (std::size_t i = 0; i < an.byDegree.size(); ++i) {
    EXPECT_EQ(an.byDegree[i].left, bn.byDegree[i].left) << "near deg " << i;
    EXPECT_EQ(an.byDegree[i].right, bn.byDegree[i].right) << "near deg " << i;
  }

  const auto& af = a.table.farTable();
  const auto& bf = b.table.farTable();
  ASSERT_EQ(af.byDegree.size(), bf.byDegree.size());
  for (std::size_t i = 0; i < af.byDegree.size(); ++i) {
    EXPECT_EQ(af.byDegree[i].left, bf.byDegree[i].left) << "far deg " << i;
    EXPECT_EQ(af.byDegree[i].right, bf.byDegree[i].right) << "far deg " << i;
  }
  EXPECT_EQ(af.tapLeftSamples, bf.tapLeftSamples);
  EXPECT_EQ(af.tapRightSamples, bf.tapRightSamples);
}

/// Block until the session has extracted `n` stops (the graph is
/// asynchronous; tests that assert on per-stop state need to let the nodes
/// drain first).
void waitForExtracted(const stream::StreamingSession& session,
                      std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (session.coverage().stopsExtracted < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for " << n << " extracted stops";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- BoundedQueue -------------------------------------------------------

TEST(BoundedQueue, FifoOrderAndCloseDrainSemantics) {
  stream::BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  q.close();
  EXPECT_FALSE(q.push(4));  // closed: refused

  int v = 0;
  EXPECT_TRUE(q.pop(v));  // pending items still drain after close
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(q.pop(v));  // drained + closed: consumer shutdown signal
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilPopMakesRoom) {
  stream::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(10));
  EXPECT_TRUE(q.push(11));
  EXPECT_EQ(q.size(), 2u);

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(12));  // backpressure: blocks until the pop below
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked at capacity

  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 10);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 11);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 12);
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  stream::BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.push(2));  // blocked at capacity, then woken by close
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
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
  stream::StreamingSessionOptions opts;
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture), opts);
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
  stream::StreamingSessionOptions opts;
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture), opts);
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
  stream::StreamingSessionOptions opts;
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture), opts);
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

TEST(StreamingSession, CoverageIsMonotoneAndHintsNameThinArcs) {
  const auto capture = makeCapture(25, 12);
  stream::StreamingSessionOptions opts;
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture), opts);

  double lastCovered = 0.0;
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    ASSERT_TRUE(session.push(capture.stops[i], i));
    waitForExtracted(session, i + 1);
    const auto snap = session.coverage();
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

TEST(StreamingSession, ConvergenceEarlyStopIsDegradedAtWorst) {
  // A rich sweep with relaxed convergence knobs: the running estimate must
  // stabilize before the capture runs out, and finalizing at that point —
  // with stops left unpushed — still personalizes (degraded at worst,
  // never the failed fallback).
  const auto capture = makeCapture(26, 24);
  stream::StreamingSessionOptions opts;
  opts.minStopsBeforeConverge = 6;
  opts.minCoverageForConverge = 0.4;
  opts.convergeStreak = 2;
  opts.convergeDeltaM = 2e-3;
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture), opts);

  std::size_t pushed = 0;
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    ASSERT_TRUE(session.push(capture.stops[i], i));
    ++pushed;
    waitForExtracted(session, i + 1);
    if (session.converged()) break;
  }
  EXPECT_TRUE(session.converged())
      << "rich capture should converge before the sweep ends";
  EXPECT_LT(pushed, capture.stops.size());

  const auto out = session.finalize();
  EXPECT_TRUE(out.convergedEarly);
  EXPECT_GT(out.timeToConvergeMs, 0.0);
  EXPECT_NE(out.personal.status, core::PipelineStatus::kFailed);
  EXPECT_GE(out.incrementalSolves, opts.convergeStreak);
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

TEST(StreamingSession, ExportsStreamMetrics) {
  const auto capture = makeCapture(27, 8);
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture));
  for (std::size_t i = 0; i < capture.stops.size(); ++i)
    ASSERT_TRUE(session.push(capture.stops[i], i));
  obs::RunReport report;
  (void)session.finalize(&report);

  const auto snapshot = obs::registry().snapshot();
  EXPECT_GE(snapshot.counter("stream.stops.ingested"),
            capture.stops.size());
  EXPECT_GE(snapshot.counter("stream.solve.incremental_restarts"), 1u);
  EXPECT_GE(snapshot.counter("stream.sessions.finalized"), 1u);
  // The queue gauges exist (depth returns to 0 after the drain; the
  // high-water mark proves items actually flowed through the edges).
  EXPECT_GE(snapshot.gauge("stream.queue_depth.ingest.max"), 1.0);
  EXPECT_GE(snapshot.gauge("stream.queue_depth.fused.max"), 1.0);
  EXPECT_EQ(snapshot.gauge("stream.queue_depth.ingest"), 0.0);

  // The streaming finalize fills the report like a batch run, with the
  // accumulated per-stop extraction time on the "extract" stage.
  ASSERT_NE(report.find("extract"), nullptr);
  EXPECT_GT(report.find("extract")->wallMs, 0.0);
  ASSERT_NE(report.find("fusion"), nullptr);
}

}  // namespace
}  // namespace uniq
