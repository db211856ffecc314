#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/constants.h"
#include "common/random.h"
#include "core/sensor_fusion.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "obs/metrics.h"

namespace uniq::common {
namespace {

/// A deliberately order-sensitive computation: if two threads ever ran the
/// same index, or an index were skipped, the output would differ from the
/// serial fill.
std::vector<double> fill(ThreadPool& pool, std::size_t count,
                         std::size_t maxThreads) {
  std::vector<double> out(count, -1.0);
  pool.parallelFor(
      0, count,
      [&](std::size_t i) {
        out[i] = std::sin(0.1 * static_cast<double>(i)) +
                 std::sqrt(static_cast<double>(i + 1));
      },
      maxThreads);
  return out;
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallelFor(0, counts.size(), [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForBitwiseIdenticalAcrossThreadCounts) {
  ThreadPool pool(4);
  const auto serial = fill(pool, 2000, 1);
  for (const std::size_t maxThreads : {0u, 2u, 3u, 5u}) {
    const auto parallel = fill(pool, 2000, maxThreads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bitwise: the same fn(i) ran on some thread, nothing else touched
      // slot i.
      EXPECT_EQ(parallel[i], serial[i]) << "i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallelFor(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallelFor(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallelFor(0, 100,
                       [](std::size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::vector<double>> rows(8);
  pool.parallelFor(0, rows.size(), [&](std::size_t r) {
    rows[r].assign(16, 0.0);
    // Nested call: must complete inline on this worker, never wait on the
    // pool it is running inside.
    pool.parallelFor(0, rows[r].size(), [&](std::size_t c) {
      rows[r][c] = static_cast<double>(r * 100 + c);
    });
  });
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t c = 0; c < rows[r].size(); ++c)
      EXPECT_EQ(rows[r][c], static_cast<double>(r * 100 + c));
}

TEST(ThreadPool, NestedCallInCallersShareDoesNotWaitForBusyWorkers) {
  // The caller's own share of an outer loop is nested too. A parallelFor
  // there must run inline, not queue helpers behind workers that are busy
  // with sibling indices and wait for it.
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  const auto timeout = std::chrono::seconds(10);
  std::mutex m;
  std::condition_variable cv;
  int workersBusy = 0;
  bool nestedDone = false;
  int workerTimeouts = 0;
  pool.parallelFor(0, 3, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(m);
    if (std::this_thread::get_id() != caller) {
      ++workersBusy;
      cv.notify_all();
      if (!cv.wait_for(lock, timeout, [&] { return nestedDone; }))
        ++workerTimeouts;
      return;
    }
    // Hold this index until both workers hold theirs.
    cv.wait_for(lock, timeout, [&] { return workersBusy == 2; });
    lock.unlock();
    pool.parallelFor(0, 4, [](std::size_t) {});
    lock.lock();
    nestedDone = true;
    cv.notify_all();
  });
  EXPECT_EQ(workerTimeouts, 0);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  pool.submit([&] {
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return done; }));
}

TEST(ThreadPool, GlobalPoolStatsAdvance) {
  const obs::Counter& tasks = obs::registry().counter("pool.tasks");
  const std::uint64_t before = tasks.value();
  parallelFor(0, 64, [](std::size_t) {});
  EXPECT_GE(tasks.value(), before);
  EXPECT_EQ(obs::registry().gauge("pool.threads").value(),
            static_cast<double>(globalPool().threadCount()));
}

TEST(ThreadPool, SensorFusionSolveBitwiseIdenticalSerialVsParallel) {
  // End-to-end determinism: the full Levenberg-Marquardt solve must
  // produce the exact same head parameters whether its residuals are
  // computed serially or fanned out across the global pool.
  const head::HeadParameters truth{0.071, 0.104, 0.089};
  const geo::HeadBoundary head(truth.a, truth.b, truth.c, 256);
  std::vector<core::FusionMeasurement> measurements;
  Pcg32 rng(11);
  for (int i = 0; i < 18; ++i) {
    const double theta = 5.0 + 170.0 * i / 17.0;
    const geo::Vec2 pos = geo::pointFromPolarDeg(theta, 0.34);
    core::FusionMeasurement m;
    m.delayLeftSec =
        geo::nearFieldPath(head, pos, geo::Ear::kLeft).length / kSpeedOfSound;
    m.delayRightSec =
        geo::nearFieldPath(head, pos, geo::Ear::kRight).length /
        kSpeedOfSound;
    m.imuAngleDeg = theta + rng.gaussian(0.0, 2.0);
    measurements.push_back(m);
  }

  const core::SensorFusion fusion;

  // Nested inside another parallelFor the objective runs inline (serial);
  // on this thread it is the outermost call and fans out.
  core::SensorFusionResult serial;
  parallelFor(0, 1, [&](std::size_t) { serial = fusion.solve(measurements); });
  const auto parallel = fusion.solve(measurements);

  EXPECT_EQ(serial.headParams.a, parallel.headParams.a);
  EXPECT_EQ(serial.headParams.b, parallel.headParams.b);
  EXPECT_EQ(serial.headParams.c, parallel.headParams.c);
  EXPECT_EQ(serial.localizedCount, parallel.localizedCount);
  EXPECT_EQ(serial.meanSquaredResidualDeg2, parallel.meanSquaredResidualDeg2);
  ASSERT_EQ(serial.stops.size(), parallel.stops.size());
  for (std::size_t i = 0; i < serial.stops.size(); ++i) {
    EXPECT_EQ(serial.stops[i].angleDeg, parallel.stops[i].angleDeg);
    EXPECT_EQ(serial.stops[i].radiusM, parallel.stops[i].radiusM);
  }
}

}  // namespace
}  // namespace uniq::common
