#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace uniq::common {

/// A small fixed-size thread pool with no external dependencies.
///
/// Two usage styles:
///  - submit(task): fire-and-forget background task.
///  - parallelFor(begin, end, fn): block until fn(i) ran for every i in
///    [begin, end). Indices are handed out by an atomic counter and the
///    calling thread participates, so the pool never deadlocks even with
///    zero workers. Results are deterministic as long as fn(i) writes only
///    to per-index state: the set of calls is identical for any thread
///    count, only the interleaving differs.
///
/// One fan-out rule: only the outermost parallelFor on a thread fans out.
/// A parallelFor called while another one is running on the same thread
/// (in the caller's own share of the outer loop, or in any task on a pool
/// worker) runs inline. Composed parallel stages therefore never queue
/// helpers behind busy workers and never deadlock; a stage fans out when it
/// runs alone and runs serially under an outer fan-out.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is allowed; everything then runs inline on
  /// the calling thread).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Enqueue a background task. The submitter's trace context
  /// (obs::currentTraceId) is captured and restored around the task on the
  /// worker, so spans the task records attribute to the submitting job.
  void submit(std::function<void()> task);

  /// Run fn(i) for every i in [begin, end), blocking until all complete.
  /// `maxThreads` caps the number of executing threads for this call
  /// (0 = use every worker plus the caller; 1 = run serially inline). The
  /// first exception thrown by fn is rethrown on the calling thread after
  /// the loop drains. Nested calls run inline (see the class comment).
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn,
                   std::size_t maxThreads = 0);

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool, created on first use. Sized by the UNIQ_NUM_THREADS
/// environment variable when set (total executing threads including the
/// caller), otherwise by std::thread::hardware_concurrency(), clamped to
/// [1, 16].
ThreadPool& globalPool();

/// parallelFor on the global pool. Deterministic for per-index writes (see
/// ThreadPool::parallelFor); `maxThreads` = 0 uses the full pool, 1 forces
/// the serial inline path.
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t maxThreads = 0);

}  // namespace uniq::common
