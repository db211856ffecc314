// Serving-layer tests: the concurrent CalibrationService (admission
// control, cancellation, deadlines, failure isolation), the LRU TableCache
// (eviction, hit accounting, disk tier, population fallback), and the
// BatchAoaEngine (grouping, determinism, fallback flagging). Pipeline runs
// here use small captures — the service's correctness must not depend on
// job duration, only its *timing-sensitive* assertions do, and those are
// written to hold on either side of the race.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "core/aoa.h"
#include "core/pipeline.h"
#include "core/table_io.h"
#include "dsp/signal_generators.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "serve/batch_aoa.h"
#include "serve/calibration_service.h"
#include "serve/table_cache.h"
#include "sim/measurement_session.h"
#include "test_util.h"

namespace uniq {
namespace {

/// A small but personalizable capture for subject `seed` (8 stops clears
/// the pipeline's minUsableStops=6 gate, so jobs land kOk or kDegraded).
sim::CalibrationCapture makeCapture(std::uint64_t seed,
                                    std::size_t stops = 8) {
  const auto subject = head::makePopulation(1, seed)[0];
  const sim::MeasurementSession session;
  auto gesture = sim::defaultGesture();
  gesture.stops = stops;
  return session.run(subject, gesture);
}

/// Iteration scale for the stress tests. CI's default smoke runs at 1; the
/// nightly soak job sets UNIQ_STRESS_MULTIPLIER to push more jobs through
/// the same assertions.
std::size_t stressMultiplier() {
  if (const char* env = std::getenv("UNIQ_STRESS_MULTIPLIER")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1;
}

TEST(RunAbortToken, CancelAndDeadlineBothMakeItDue) {
  core::RunAbortToken token;
  EXPECT_FALSE(token.due());
  token.setDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(1));
  EXPECT_FALSE(token.due());
  token.setDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_TRUE(token.due());

  core::RunAbortToken cancelled;
  cancelled.requestCancel();
  EXPECT_TRUE(cancelled.cancelRequested());
  EXPECT_TRUE(cancelled.due());
}

TEST(RunAbortToken, PreCancelledPipelineRunReturnsAbortedFallback) {
  const auto capture = makeCapture(7);
  core::RunAbortToken token;
  token.requestCancel();
  const core::CalibrationPipeline pipeline;
  const auto out = pipeline.run(capture, nullptr, &token);
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.status, core::PipelineStatus::kFailed);
  // The abort still yields a usable (population-average) table.
  EXPECT_FALSE(out.table.farTable().byDegree.empty());
  EXPECT_FALSE(out.diagnostics.empty());
}

// --- TableCache ---------------------------------------------------------

TEST(TableCache, LruEvictionOrderAndStats) {
  serve::TableCacheOptions opts;
  opts.capacity = 2;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  cache.put("a", table);
  cache.put("b", table);
  EXPECT_EQ(cache.size(), 2u);

  // Touch "a" so "b" is the LRU entry, then overflow.
  EXPECT_NE(cache.get("a"), nullptr);
  cache.put("c", table);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));

  EXPECT_EQ(cache.get("b"), nullptr);  // miss after eviction
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(TableCache, FallbackIsSharedAndNotCountedAsPersonalized) {
  serve::TableCacheOptions opts;
  opts.capacity = 4;
  serve::TableCache cache(opts);
  const auto fallback = cache.getOrFallback("nobody", 48000.0);
  ASSERT_NE(fallback, nullptr);
  // Same process-wide instance every time — uncalibrated users share it.
  EXPECT_EQ(fallback.get(),
            serve::TableCache::populationAverageTable(48000.0).get());
  EXPECT_FALSE(cache.contains("nobody"));
  EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(TableCache, DiskTierSurvivesEviction) {
  const std::string dir = ::testing::TempDir();
  serve::TableCacheOptions opts;
  opts.capacity = 1;
  opts.persistDir = dir;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  cache.put("alice", table);
  cache.put("bob", table);  // evicts alice from memory, not from disk
  EXPECT_FALSE(cache.contains("alice"));

  const auto reloaded = cache.get("alice");
  ASSERT_NE(reloaded, nullptr);  // disk hit, promoted back into memory
  EXPECT_TRUE(cache.contains("alice"));
  EXPECT_GE(cache.stats().diskHits, 1u);
  EXPECT_EQ(reloaded->sampleRate(), table->sampleRate());

  // A fresh cache over the same directory is warm from disk too.
  opts.capacity = 4;
  serve::TableCache second(opts);
  EXPECT_NE(second.get("bob"), nullptr);
  std::remove((dir + "/alice.uniqq").c_str());
  std::remove((dir + "/bob.uniqq").c_str());
}

TEST(TableCache, ShardedCacheSharesOneCapacityBudget) {
  serve::TableCacheOptions opts;
  opts.capacity = 8;
  opts.shards = 4;
  serve::TableCache cache(opts);
  EXPECT_EQ(cache.shardCount(), 4u);

  const auto table = serve::TableCache::populationAverageTable(48000.0);
  for (int i = 0; i < 64; ++i) cache.put("user" + std::to_string(i), table);
  // However the 64 users hashed across the 4 shards, the shared budget
  // holds: never more than `capacity` entries in memory, and one eviction
  // per over-budget insert.
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_GE(cache.stats().evictions, 56u);
}

TEST(TableCache, RejectsNonPowerOfTwoShardCount) {
  serve::TableCacheOptions opts;
  opts.shards = 6;
  EXPECT_THROW(serve::TableCache cache(opts), InvalidArgument);
}

TEST(TableCache, DiskTierWritesAndReadsQuantized) {
  const std::string dir = ::testing::TempDir();
  serve::TableCacheOptions opts;
  opts.capacity = 1;
  opts.persistDir = dir;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);

  // put() persists the compact quantized container, not the float64 one.
  cache.put("quser", table);
  EXPECT_TRUE(std::ifstream(dir + "/quser.uniqq").good());
  EXPECT_FALSE(std::ifstream(dir + "/quser.uniq").good());

  cache.put("other", table);  // evicts quser from memory
  EXPECT_FALSE(cache.contains("quser"));
  serve::CacheTier tier = serve::CacheTier::kMiss;
  const auto back = cache.get("quser", &tier);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(tier, serve::CacheTier::kDisk);
  // The rescued table is the quantized round trip: within the pinned
  // budget of the original at every compared sample.
  const auto& a = table->farAt(90);
  const auto& b = back->farAt(90);
  ASSERT_EQ(a.left.size(), b.left.size());
  double peak = 0.0;
  for (const double v : a.left) peak = std::max(peak, std::abs(v));
  for (const double v : a.right) peak = std::max(peak, std::abs(v));
  for (std::size_t i = 0; i < a.left.size(); ++i)
    EXPECT_NEAR(a.left[i], b.left[i], core::kQuantSampleError * peak);

  // Lookup attribution covers the remaining tiers too.
  tier = serve::CacheTier::kMiss;
  cache.get("quser", &tier);
  EXPECT_EQ(tier, serve::CacheTier::kMemory);
  tier = serve::CacheTier::kMemory;
  EXPECT_EQ(cache.get("nobody", &tier), nullptr);
  EXPECT_EQ(tier, serve::CacheTier::kMiss);
  tier = serve::CacheTier::kMiss;
  cache.getOrFallback("nobody", 48000.0, &tier);
  EXPECT_EQ(tier, serve::CacheTier::kFallback);

  std::remove((dir + "/quser.uniqq").c_str());
  std::remove((dir + "/other.uniqq").c_str());
}

// --- CalibrationService -------------------------------------------------

TEST(CalibrationService, StressConcurrentSubmissionsMatchSerial) {
  // 8 jobs over a 2-worker pool (>= 4x pool size) cycling 4 distinct
  // captures. Every job must land kDone with exactly the table a serial
  // pipeline run produces for its capture — concurrency must not change
  // results bit for bit.
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kCaptures = 4;
  const std::size_t kJobs = 4 * kWorkers * stressMultiplier();

  std::vector<std::shared_ptr<const sim::CalibrationCapture>> captures;
  for (std::size_t i = 0; i < kCaptures; ++i)
    captures.push_back(std::make_shared<const sim::CalibrationCapture>(
        makeCapture(100 + i)));

  const core::CalibrationPipeline serial;
  std::vector<core::PersonalHrtf> expected;
  for (const auto& c : captures) expected.push_back(serial.run(*c));

  serve::CalibrationServiceOptions opts;
  opts.workers = kWorkers;
  opts.maxQueued = kJobs;
  opts.cacheCapacity = kCaptures;
  serve::CalibrationService service(opts);
  EXPECT_EQ(service.workerCount(), kWorkers);

  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const auto id = service.submit("user" + std::to_string(j % kCaptures),
                                   captures[j % kCaptures]);
    ASSERT_NE(id, serve::kInvalidJobId);
    ids.push_back(id);
  }
  const auto results = service.drain();
  ASSERT_EQ(results.size(), kJobs);

  for (std::size_t j = 0; j < kJobs; ++j) {
    const auto& r = results[j];
    ASSERT_EQ(r.state, serve::JobState::kDone) << "job " << j;
    EXPECT_EQ(r.id, ids[j]);  // drain() preserves submission order
    const auto& want = expected[j % kCaptures];
    EXPECT_EQ(r.status, want.status);
    ASSERT_NE(r.table, nullptr);
    const auto& got = r.table->farTable().byDegree;
    const auto& ref = want.table.farTable().byDegree;
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t d = 0; d < ref.size(); d += 45) {
      ASSERT_EQ(got[d].left.size(), ref[d].left.size());
      for (std::size_t t = 0; t < ref[d].left.size(); ++t) {
        EXPECT_EQ(got[d].left[t], ref[d].left[t])
            << "job " << j << " deg " << d << " tap " << t;
        EXPECT_EQ(got[d].right[t], ref[d].right[t])
            << "job " << j << " deg " << d << " tap " << t;
      }
    }
    EXPECT_GE(r.runMs, 0.0);
    EXPECT_GE(r.queueMs, 0.0);
  }
  // All four users finished at least once -> personalized tables cached.
  for (std::size_t i = 0; i < kCaptures; ++i)
    EXPECT_TRUE(service.cache().contains("user" + std::to_string(i)));
}

TEST(CalibrationService, ShardedRunMatchesSerialBitwise) {
  // The 8-job stress over a service whose table cache has 4 shards.
  // Together with StressConcurrentSubmissionsMatchSerial (which runs the
  // identical workload over a one-shard cache against the same serial
  // reference), this pins shards=4 == shards=1 == serial, bit for bit —
  // cache sharding must be a pure concurrency change.
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kCaptures = 4;
  constexpr std::size_t kShards = 4;
  const std::size_t kJobs = 4 * kWorkers * stressMultiplier();

  std::vector<std::shared_ptr<const sim::CalibrationCapture>> captures;
  for (std::size_t i = 0; i < kCaptures; ++i)
    captures.push_back(std::make_shared<const sim::CalibrationCapture>(
        makeCapture(100 + i)));

  const core::CalibrationPipeline serial;
  std::vector<core::PersonalHrtf> expected;
  for (const auto& c : captures) expected.push_back(serial.run(*c));

  serve::CalibrationServiceOptions opts;
  opts.workers = kWorkers;
  opts.shards = kShards;
  opts.maxQueued = kJobs;
  opts.cacheCapacity = kCaptures;
  serve::CalibrationService service(opts);
  EXPECT_EQ(service.cache().shardCount(), kShards);

  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const auto id = service.submit("user" + std::to_string(j % kCaptures),
                                   captures[j % kCaptures]);
    ASSERT_NE(id, serve::kInvalidJobId);
    EXPECT_EQ(std::find(ids.begin(), ids.end(), id), ids.end());
    ids.push_back(id);
  }
  const auto results = service.drain();
  ASSERT_EQ(results.size(), kJobs);

  for (std::size_t j = 0; j < kJobs; ++j) {
    const auto& r = results[j];
    ASSERT_EQ(r.state, serve::JobState::kDone) << "job " << j;
    EXPECT_EQ(r.id, ids[j]);  // drain() preserves submission order
    const auto& want = expected[j % kCaptures];
    EXPECT_EQ(r.status, want.status);
    ASSERT_NE(r.table, nullptr);
    const auto& got = r.table->farTable().byDegree;
    const auto& ref = want.table.farTable().byDegree;
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t d = 0; d < ref.size(); d += 45) {
      ASSERT_EQ(got[d].left.size(), ref[d].left.size());
      for (std::size_t t = 0; t < ref[d].left.size(); ++t) {
        EXPECT_EQ(got[d].left[t], ref[d].left[t])
            << "job " << j << " deg " << d << " tap " << t;
        EXPECT_EQ(got[d].right[t], ref[d].right[t])
            << "job " << j << " deg " << d << " tap " << t;
      }
    }
  }
  for (std::size_t i = 0; i < kCaptures; ++i)
    EXPECT_TRUE(service.cache().contains("user" + std::to_string(i)));
}

TEST(CalibrationService, ConcurrentJobsAllLandInStageHistograms) {
  // Batch and streaming jobs racing on two workers each add one
  // observation per stage to the pipeline.stage.<name>.ms histograms, and
  // the histograms' sums are the sums of the jobs' reported stage times.
  const auto& stages = test::pipelineStages();
  std::vector<obs::MetricsSnapshot::HistogramEntry> before;
  for (const auto& stage : stages) before.push_back(test::stageHistogram(stage));

  constexpr std::size_t kJobs = 4;
  serve::CalibrationServiceOptions opts;
  opts.workers = 2;
  opts.maxQueued = kJobs;
  serve::CalibrationService service(opts);
  for (std::size_t j = 0; j < kJobs; ++j) {
    serve::JobOptions jobOpts;
    jobOpts.streaming = j % 2 == 1;
    ASSERT_NE(service.submit("user" + std::to_string(j), makeCapture(120 + j),
                             jobOpts),
              serve::kInvalidJobId);
  }
  const auto results = service.drain();
  ASSERT_EQ(results.size(), kJobs);

  for (std::size_t i = 0; i < stages.size(); ++i) {
    double reportedMs = 0.0;
    for (const auto& r : results) {
      ASSERT_EQ(r.state, serve::JobState::kDone);
      const auto* stage = r.report.find(stages[i]);
      ASSERT_NE(stage, nullptr) << stages[i];
      reportedMs += stage->wallMs;
    }
    const auto after = test::stageHistogram(stages[i]);
    EXPECT_EQ(after.count, before[i].count + kJobs) << stages[i];
    EXPECT_NEAR(after.sum - before[i].sum, reportedMs,
                1e-9 * std::max(1.0, after.sum))
        << stages[i];
  }
}

TEST(CalibrationService, StreamingJobMatchesBatchJobBitwise) {
  // A streaming job replays every stop of its capture, so its table is the
  // batch job's table bit for bit — also on a full-length sweep whose
  // running estimate converges well before the last stop — and a second
  // service run reproduces both exactly. Nobody reads the job's session
  // while it is fed, so it runs no incremental solve.
  const auto capture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(26, 36));
  std::vector<std::shared_ptr<const core::HrtfTable>> streamed;
  for (int run = 0; run < 2; ++run) {
    serve::CalibrationServiceOptions opts;
    opts.workers = 2;
    serve::CalibrationService service(opts);
    serve::JobOptions streaming;
    streaming.streaming = true;
    const auto restartsBefore = obs::registry().snapshot().counter(
        "stream.solve.incremental_restarts");
    ASSERT_NE(service.submit("batch", capture), serve::kInvalidJobId);
    ASSERT_NE(service.submit("stream", capture, streaming),
              serve::kInvalidJobId);
    const auto results = service.drain();
    EXPECT_EQ(obs::registry().snapshot().counter(
                  "stream.solve.incremental_restarts"),
              restartsBefore);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& r : results) {
      ASSERT_EQ(r.state, serve::JobState::kDone) << r.userId;
      ASSERT_NE(r.table, nullptr) << r.userId;
    }
    EXPECT_NE(results[1].status, core::PipelineStatus::kFailed);
    EXPECT_EQ(results[1].status, results[0].status);
    test::expectTablesBitwiseEqual(*results[1].table, *results[0].table);
    streamed.push_back(results[1].table);
  }
  test::expectTablesBitwiseEqual(*streamed[1], *streamed[0]);
}

TEST(CalibrationService, QueuedJobStartsOnIdleWorkerWhileAnotherRuns) {
  // Two workers: a job queued behind a running one must start on the idle
  // worker, not wait for the busy one to finish its job.
  serve::CalibrationServiceOptions opts;
  opts.workers = 2;
  serve::CalibrationService service(opts);
  const auto longCapture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(14, 36));
  const auto queuedCapture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(15));

  const auto first = service.submit("long", longCapture);
  ASSERT_NE(first, serve::kInvalidJobId);
  std::atomic<bool> firstDone{false};
  std::thread waiter([&] {
    service.wait(first);
    firstDone = true;
  });
  // Picked up = running (both happen under the service lock).
  while (service.queuedCount() != 0) std::this_thread::yield();
  const auto second = service.submit("queued", queuedCapture);
  ASSERT_NE(second, serve::kInvalidJobId);
  bool overlapped = false;
  while (!overlapped && !firstDone) {
    overlapped = service.runningCount() == 2;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  waiter.join();
  EXPECT_TRUE(overlapped) << "queued job waited for the running one";
  EXPECT_EQ(service.wait(second).state, serve::JobState::kDone);
  const auto results = service.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, first);
  EXPECT_EQ(results[1].id, second);
}

TEST(CalibrationService, RejectsNonPowerOfTwoShardCount) {
  // `shards` sizes the service's table cache, which needs a power of two.
  serve::CalibrationServiceOptions opts;
  opts.shards = 3;
  EXPECT_THROW(serve::CalibrationService service(opts), InvalidArgument);
}

TEST(CalibrationService, AdmissionControlRejectsWhenQueueFull) {
  serve::CalibrationServiceOptions opts;
  opts.workers = 1;
  opts.maxQueued = 1;
  serve::CalibrationService service(opts);
  const auto capture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(11));

  std::vector<std::uint64_t> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto id = service.submit("u" + std::to_string(i), capture);
    if (id == serve::kInvalidJobId)
      ++rejected;
    else
      accepted.push_back(id);
  }
  // One job can be running and one queued; submits are microseconds while
  // jobs are ~a second, so at least one of the six must bounce.
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(accepted.size(), 1u);
  EXPECT_EQ(accepted.size() + rejected, 6u);

  const auto results = service.drain();
  EXPECT_EQ(results.size(), accepted.size());
  for (const auto& r : results) EXPECT_EQ(r.state, serve::JobState::kDone);
}

TEST(CalibrationService, CancelQueuedJobNeverRuns) {
  serve::CalibrationServiceOptions opts;
  opts.workers = 1;
  opts.maxQueued = 4;
  serve::CalibrationService service(opts);
  const auto capture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(12));

  const auto a = service.submit("first", capture);
  const auto b = service.submit("second", capture);
  ASSERT_NE(a, serve::kInvalidJobId);
  ASSERT_NE(b, serve::kInvalidJobId);
  // The single worker is busy with `a`, so `b` is still queued; whichever
  // side of the race we land on, a true cancel() must end in kCancelled.
  const bool cancelable = service.cancel(b);
  const auto rb = service.wait(b);
  if (cancelable) {
    EXPECT_EQ(rb.state, serve::JobState::kCancelled);
    EXPECT_EQ(rb.table, nullptr);
  } else {
    EXPECT_EQ(rb.state, serve::JobState::kDone);
  }
  EXPECT_FALSE(service.cancel(b));  // terminal jobs refuse a second cancel

  const auto ra = service.wait(a);
  EXPECT_EQ(ra.state, serve::JobState::kDone);
  service.drain();
}

TEST(CalibrationService, ExpiredDeadlineJobTerminatesAsExpired) {
  serve::CalibrationServiceOptions opts;
  opts.workers = 1;
  serve::CalibrationService service(opts);
  const auto capture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(13));

  serve::JobOptions job;
  job.deadlineMs = 1e-6;  // already past by the time any worker looks
  const auto id = service.submit("late", capture, job);
  ASSERT_NE(id, serve::kInvalidJobId);
  const auto r = service.wait(id);
  EXPECT_EQ(r.state, serve::JobState::kExpired);
  EXPECT_EQ(r.table, nullptr);
  EXPECT_FALSE(service.cache().contains("late"));
  service.drain();
}

TEST(CalibrationService, FailedJobIsIsolatedAndNeverCached) {
  // A 4-stop capture is below minUsableStops=6: the pipeline fails over to
  // the population-average table. The job must still report kDone (the
  // *service* worked; the *calibration* failed), its fallback table must
  // stay out of the cache, and surrounding healthy jobs must be untouched.
  serve::CalibrationServiceOptions opts;
  opts.workers = 2;
  serve::CalibrationService service(opts);

  const auto poisoned = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(21, /*stops=*/4));
  const auto healthy = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(22));

  const auto h1 = service.submit("healthy1", healthy);
  const auto bad = service.submit("poisoned", poisoned);
  const auto h2 = service.submit("healthy2", healthy);
  ASSERT_NE(bad, serve::kInvalidJobId);

  const auto rBad = service.wait(bad);
  EXPECT_EQ(rBad.state, serve::JobState::kDone);
  EXPECT_EQ(rBad.status, core::PipelineStatus::kFailed);
  ASSERT_NE(rBad.table, nullptr);  // fallback handed to the caller...
  EXPECT_FALSE(service.cache().contains("poisoned"));  // ...never cached

  for (const auto id : {h1, h2}) {
    const auto r = service.wait(id);
    EXPECT_EQ(r.state, serve::JobState::kDone);
    EXPECT_NE(r.status, core::PipelineStatus::kFailed);
  }
  EXPECT_TRUE(service.cache().contains("healthy1"));
  service.drain();
}

TEST(CalibrationService, DestructorCancelsQueuedJobsAndWaitsForRunning) {
  // One worker runs a full-sweep blocker while kQueued jobs wait behind
  // it. Destroying the service must cancel every waiting job without
  // running it, let the blocker finish, and leave the queue gauge where it
  // found it. Should the blocker finish before the destructor takes the
  // lock, a queued job starts legitimately; that attempt is retried.
  constexpr std::size_t kQueued = 3;
  const auto blocker = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(16, 36));
  const auto waiting = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(17));
  bool blockerOutlivedSubmits = false;
  for (int attempt = 0; attempt < 3 && !blockerOutlivedSubmits; ++attempt) {
    const auto before = obs::registry().snapshot();
    const auto runsBefore = test::stageHistogram("extract").count;
    {
      serve::CalibrationServiceOptions opts;
      opts.workers = 1;
      opts.maxQueued = kQueued;
      serve::CalibrationService service(opts);
      ASSERT_NE(service.submit("blocker", blocker), serve::kInvalidJobId);
      while (service.runningCount() == 0) std::this_thread::yield();
      for (std::size_t i = 0; i < kQueued; ++i)
        ASSERT_NE(service.submit("queued" + std::to_string(i), waiting),
                  serve::kInvalidJobId);
    }
    const auto after = obs::registry().snapshot();
    const auto runs = test::stageHistogram("extract").count - runsBefore;
    if (runs > 1) continue;  // the blocker finished first
    blockerOutlivedSubmits = true;
    EXPECT_EQ(runs, 1u);  // no queued job ran
    EXPECT_EQ(after.counter("serve.jobs.done") -
                  before.counter("serve.jobs.done"),
              1u);  // the destructor waited for the blocker
    EXPECT_EQ(after.counter("serve.jobs.cancelled") -
                  before.counter("serve.jobs.cancelled"),
              kQueued);
    EXPECT_EQ(after.gauge("serve.queue.depth"),
              before.gauge("serve.queue.depth"));
  }
  EXPECT_TRUE(blockerOutlivedSubmits)
      << "a queued job ran in every attempt";
}

TEST(CalibrationService, MetricsAccountForEveryTerminalState) {
  const auto& before = obs::registry().snapshot();
  auto counterValue = [](const obs::MetricsSnapshot& snap,
                         const std::string& name) -> double {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    return 0.0;
  };
  const double doneBefore = counterValue(before, "serve.jobs.done");
  const double submittedBefore = counterValue(before, "serve.jobs.submitted");

  serve::CalibrationServiceOptions opts;
  opts.workers = 1;
  serve::CalibrationService service(opts);
  const auto capture = std::make_shared<const sim::CalibrationCapture>(
      makeCapture(31));
  service.submit("metered", capture);
  const auto results = service.drain();
  ASSERT_EQ(results.size(), 1u);

  const auto& after = obs::registry().snapshot();
  EXPECT_GE(counterValue(after, "serve.jobs.submitted"),
            submittedBefore + 1.0);
  EXPECT_GE(counterValue(after, "serve.jobs.done"), doneBefore + 1.0);
  bool sawQueueDepthGauge = false;
  for (const auto& g : after.gauges)
    if (g.name == "serve.queue.depth") sawQueueDepthGauge = true;
  EXPECT_TRUE(sawQueueDepthGauge);
  // The job left the running gauge before drain() could return.
  EXPECT_EQ(after.gauge("serve.jobs.running"),
            before.gauge("serve.jobs.running"));
}

// --- BatchAoaEngine -----------------------------------------------------

TEST(BatchAoaEngine, MatchesSingleEstimatorBitForBit) {
  serve::TableCacheOptions opts;
  opts.capacity = 4;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  cache.put("alice", table);

  const double fs = table->sampleRate();
  const auto chirp =
      dsp::linearChirp(200.0, 16000.0, static_cast<std::size_t>(0.05 * fs),
                       fs);
  const std::vector<double> angles = {40.0, 75.0, 120.0};
  std::vector<serve::AoaQuery> queries;
  for (const double a : angles) {
    const auto rendered = table->renderFar(a, chirp);
    serve::AoaQuery q;
    q.userId = "alice";
    q.left = rendered.left;
    q.right = rendered.right;
    q.source = chirp;
    queries.push_back(std::move(q));
  }

  const serve::BatchAoaEngine engine(cache);
  const auto batch = engine.run(queries);
  ASSERT_EQ(batch.size(), angles.size());

  const core::AoaEstimator reference(table->farTable());
  for (std::size_t i = 0; i < angles.size(); ++i) {
    EXPECT_TRUE(batch[i].personalized);
    const auto want = reference.estimateKnown(queries[i].left,
                                              queries[i].right,
                                              queries[i].source);
    // The template cache must be a pure speedup.
    EXPECT_EQ(batch[i].estimate.angleDeg, want.angleDeg) << angles[i];
    EXPECT_LT(angularDistanceDeg(batch[i].estimate.angleDeg,
                                         angles[i]),
              10.0);
  }
}

TEST(AoaEstimator, KnownSourceShiftsOncePerDistinctTemplateTap) {
  // The known-source sweep aligns each ear's channel once per distinct
  // template tap: every left tap of the population-average table sits at
  // the same sample and the right taps take 180 values, so a query costs
  // 1 + 180 fractional shifts instead of one per angle and ear (362).
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const auto& far = table->farTable();
  for (const double tap : far.tapLeftSamples)
    ASSERT_EQ(tap, far.tapLeftSamples.front());
  const double fs = table->sampleRate();
  const auto chirp =
      dsp::linearChirp(200.0, 16000.0, static_cast<std::size_t>(0.05 * fs),
                       fs);
  const auto rendered = table->renderFar(75.0, chirp);
  const core::AoaEstimator estimator(far);
  const auto calls = [] {
    return obs::registry().snapshot().counter("dsp.fractional_shift.calls");
  };
  const auto before = calls();
  const auto est =
      estimator.estimateKnown(rendered.left, rendered.right, chirp);
  EXPECT_EQ(calls() - before, 181u);
  EXPECT_FALSE(est.degraded);
  EXPECT_LT(angularDistanceDeg(est.angleDeg, 75.0), 10.0);
}

TEST(BatchAoaEngine, UncachedUserFallsBackAndIsFlagged) {
  serve::TableCacheOptions opts;
  opts.capacity = 4;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const double fs = table->sampleRate();
  const auto chirp =
      dsp::linearChirp(200.0, 16000.0, static_cast<std::size_t>(0.05 * fs),
                       fs);
  const auto rendered = table->renderFar(60.0, chirp);

  serve::AoaQuery q;
  q.userId = "stranger";
  q.left = rendered.left;
  q.right = rendered.right;
  q.source = chirp;

  const serve::BatchAoaEngine engine(cache);
  const auto batch = engine.run({q});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].personalized);
  // Fallback *is* the table the signal was rendered with here, so the
  // answer should still be close.
  EXPECT_LT(angularDistanceDeg(batch[0].estimate.angleDeg, 60.0),
            10.0);
}

TEST(BatchAoaEngine, UnknownSourceQueriesAreGroupedPerUser) {
  serve::TableCacheOptions opts;
  opts.capacity = 4;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  cache.put("a", table);
  cache.put("b", table);

  const double fs = table->sampleRate();
  Pcg32 rng(99);
  const auto music =
      dsp::musicLike(static_cast<std::size_t>(0.4 * fs), fs, rng);

  std::vector<serve::AoaQuery> queries;
  for (const auto* user : {"a", "b", "a", "b"}) {
    const double angle = queries.size() * 25.0 + 40.0;
    const auto rendered = table->renderFar(angle, music);
    serve::AoaQuery q;
    q.userId = user;
    q.left = rendered.left;
    q.right = rendered.right;  // no source -> unknown-source path
    queries.push_back(std::move(q));
  }
  const serve::BatchAoaEngine engine(cache);
  const auto batch = engine.run(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(batch[i].personalized);
    const double want = i * 25.0 + 40.0;
    EXPECT_LT(angularDistanceDeg(batch[i].estimate.angleDeg, want),
              25.0)
        << "query " << i;
  }
}

/// A short unknown-source query for `userId` rendered from `table`.
serve::AoaQuery shortUnknownQuery(const std::string& userId,
                                  const core::HrtfTable& table, double angle) {
  Pcg32 rng(static_cast<std::uint64_t>(angle) + 1);
  const auto noise = dsp::whiteNoise(4096, rng, 0.25);
  const auto rendered = table.renderFar(angle, noise);
  serve::AoaQuery q;
  q.userId = userId;
  q.left = rendered.left;
  q.right = rendered.right;
  return q;
}

TEST(BatchAoaEngine, DiskOnlyUserIsPersonalized) {
  const std::string dir = ::testing::TempDir();
  serve::TableCacheOptions opts;
  opts.capacity = 1;
  opts.persistDir = dir;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  cache.put("aoa-disk-user", table);
  cache.put("aoa-disk-other", table);  // memory now holds only the other
  ASSERT_FALSE(cache.contains("aoa-disk-user"));

  std::vector<serve::AoaQuery> queries;
  queries.push_back(shortUnknownQuery("aoa-disk-user", *table, 60.0));
  queries.push_back(shortUnknownQuery("aoa-disk-stranger", *table, 60.0));
  const serve::BatchAoaEngine engine(cache);
  const auto batch = engine.run(queries);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].personalized);
  EXPECT_FALSE(batch[1].personalized);
  std::remove((dir + "/aoa-disk-user.uniqq").c_str());
  std::remove((dir + "/aoa-disk-other.uniqq").c_str());
}

TEST(BatchAoaEngine, ConcurrentEvictionKeepsPersonalizedFlag) {
  // One thread runs batches for a user whose table is on disk while two
  // others keep promoting other users' tables from disk into a one-entry
  // cache, evicting it between (and during) lookups. The user always has a
  // personal table, so every answer must say so, whichever tier served it.
  const std::string dir = ::testing::TempDir();
  serve::TableCacheOptions opts;
  opts.capacity = 1;
  opts.persistDir = dir;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const std::vector<std::string> evictors = {"aoa-e0", "aoa-e1", "aoa-e2"};
  for (const auto& id : evictors) cache.put(id, table);
  cache.put("aoa-evict-user", table);

  const serve::BatchAoaEngine engine(cache);
  const auto query = shortUnknownQuery("aoa-evict-user", *table, 45.0);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; !done.load(); ++i)
        cache.get(evictors[i % evictors.size()]);
    });
  }
  const std::size_t batches = 200 * stressMultiplier();
  std::size_t unflagged = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto items = engine.run({query});
    for (const auto& item : items)
      if (!item.personalized) ++unflagged;
  }
  done.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(unflagged, 0u) << "of " << batches << " batches";
  EXPECT_GT(cache.stats().evictions, batches);
  std::remove((dir + "/aoa-evict-user.uniqq").c_str());
  for (const auto& id : evictors)
    std::remove((dir + "/" + id + ".uniqq").c_str());
}

}  // namespace
}  // namespace uniq
