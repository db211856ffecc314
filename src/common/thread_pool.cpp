#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::common {

namespace {

// Pool counters live in the process-wide metrics registry.
obs::Counter& tasksCounter() {
  static obs::Counter& c = obs::registry().counter("pool.tasks");
  return c;
}
obs::Gauge& maxQueueDepthGauge() {
  static obs::Gauge& g = obs::registry().gauge("pool.queue.max_depth");
  return g;
}

// True while this thread runs inside a parallelFor, and always on pool
// workers (every task runs under some outer fan-out or submit). A
// parallelFor that finds it set runs inline: only the outermost call fans
// out.
thread_local bool tlNested = false;

// Marks the calling thread as nested for one parallelFor and restores the
// previous value on exit, exceptions included.
class NestedScope {
 public:
  NestedScope() : previous_(tlNested) { tlNested = true; }
  ~NestedScope() { tlNested = previous_; }
  NestedScope(const NestedScope&) = delete;
  NestedScope& operator=(const NestedScope&) = delete;

 private:
  bool previous_;
};

void noteQueueDepth(std::size_t depth) {
  maxQueueDepthGauge().setMax(static_cast<double>(depth));
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
  tlNested = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    tasksCounter().inc();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  // Capture the submitter's trace context so spans recorded inside the
  // task attribute to the job that queued it, not to the worker thread.
  // The common case (no active context) skips the wrapper entirely.
  const obs::TraceId trace = obs::currentTraceId();
  if (trace != 0) {
    task = [trace, inner = std::move(task)] {
      obs::TraceContextScope scope(trace);
      inner();
    };
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  noteQueueDepth(depth);
  cv_.notify_one();
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t maxThreads) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  std::size_t helpers = tlNested ? 0 : workers_.size();
  if (maxThreads > 0) helpers = std::min(helpers, maxThreads - 1);
  helpers = std::min(helpers, count - 1);
  const NestedScope nested;
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Shared work descriptor: helpers and the caller pull indices from one
  // atomic counter. Per-index work is disjoint, so results do not depend on
  // which thread runs which index.
  struct Work {
    std::atomic<std::size_t> next;
    std::size_t end;
    const std::function<void(std::size_t)>& fn;
    std::mutex doneMutex;
    std::condition_variable doneCv;
    std::size_t pendingHelpers;
    std::exception_ptr error;

    Work(std::size_t b, std::size_t e,
         const std::function<void(std::size_t)>& f, std::size_t helpers)
        : next(b), end(e), fn(f), pendingHelpers(helpers) {}

    void run() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(doneMutex);
          if (!error) error = std::current_exception();
          // Stop handing out further indices after a failure.
          next.store(end, std::memory_order_relaxed);
        }
      }
    }
  };

  auto work = std::make_shared<Work>(begin, end, fn, helpers);
  for (std::size_t t = 0; t < helpers; ++t) {
    submit([work] {
      work->run();
      std::lock_guard<std::mutex> lock(work->doneMutex);
      --work->pendingHelpers;
      work->doneCv.notify_all();
    });
  }
  work->run();
  std::unique_lock<std::mutex> lock(work->doneMutex);
  work->doneCv.wait(lock, [&] { return work->pendingHelpers == 0; });
  if (work->error) std::rethrow_exception(work->error);
}

ThreadPool& globalPool() {
  static ThreadPool pool([] {
    std::size_t n = 0;
    if (const char* env = std::getenv("UNIQ_NUM_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) n = static_cast<std::size_t>(parsed);
    }
    if (n == 0) n = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    n = std::clamp<std::size_t>(n, 1, 16);
    // n counts executing threads including the caller of parallelFor.
    return n - 1;
  }());
  static const bool gaugeSet = [] {
    obs::registry().gauge("pool.threads").set(
        static_cast<double>(pool.threadCount()));
    // Touch the other pool instruments so a run that never queues work
    // still reports them (as zeros) instead of omitting the lines.
    tasksCounter();
    maxQueueDepthGauge();
    return true;
  }();
  (void)gaugeSet;
  return pool;
}

void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t maxThreads) {
  globalPool().parallelFor(begin, end, fn, maxThreads);
}

}  // namespace uniq::common
