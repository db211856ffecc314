#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "obs/report.h"
#include "serve/table_cache.h"
#include "sim/measurement_session.h"

namespace uniq::serve {

/// Terminal (and transient) states of one calibration job. A job always
/// reaches exactly one of the terminal states; the service never loses one.
enum class JobState {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< a worker is executing the pipeline
  kDone,       ///< pipeline finished; see JobResult::status for ok/degraded/
               ///< failed — a failed *calibration* is still a done *job*
  kCancelled,  ///< cancel() won the race (before or during the run)
  kExpired,    ///< the deadline passed before the job could finish
  kRejected,   ///< admission control refused it (queue full)
};

/// Stable lower-case name ("queued", ..., "rejected").
const char* jobStateName(JobState state);

/// Per-job knobs supplied at submit time.
struct JobOptions {
  /// Wall-clock budget measured from submission; 0 = none. A job that is
  /// still queued when the deadline passes is expired without running; a
  /// job already running aborts at the pipeline's next stage boundary.
  double deadlineMs = 0.0;
  /// Run the job through a stream::StreamingSession instead of the batch
  /// pipeline: the worker replays every stop of the capture into the
  /// session one at a time and polls the abort token between pushes
  /// (finer-grained cancellation than batch stage boundaries). The capture
  /// is already complete, so there is no early stop on convergence and the
  /// table is bitwise equal to a batch job's on the same capture. Results
  /// are mapped exactly like batch jobs; see docs/STREAMING.md.
  bool streaming = false;
};

/// Everything the service reports about one finished (or refused) job.
struct JobResult {
  std::uint64_t id = 0;
  std::string userId;
  /// The job's trace context: every span recorded while the job ran — on
  /// whichever pool worker — carries this id, and obs::traceEventJson
  /// groups the export by it. 0 only for rejected jobs.
  std::uint64_t traceId = 0;
  JobState state = JobState::kRejected;
  /// Calibration outcome; meaningful only when state == kDone.
  core::PipelineStatus status = core::PipelineStatus::kFailed;
  /// The produced table (kDone only; null for cancelled/expired jobs).
  /// Failed calibrations carry the population-average fallback here, same
  /// as CalibrationPipeline::run, but are never written into the cache.
  std::shared_ptr<const core::HrtfTable> table;
  /// Per-stage pipeline report (kDone and mid-run-aborted jobs).
  obs::RunReport report;
  std::vector<obs::Diagnostic> diagnostics;
  double queueMs = 0.0;  ///< submit -> worker pickup
  double runMs = 0.0;    ///< worker pickup -> terminal state
  /// Explanation for a job whose pipeline threw (also mapped to a failed
  /// status); empty otherwise.
  std::string error;
};

struct CalibrationServiceOptions {
  /// Concurrent calibration jobs (service-owned common::ThreadPool worker
  /// threads). 0 sizes like the global pool: UNIQ_NUM_THREADS or the
  /// hardware threads, clamped to [1, 16]. Each job runs its pipeline
  /// stages inline on its worker (only the outermost parallelFor on a
  /// thread fans out), so `workers` is the whole parallelism story — jobs
  /// scale across users, not within one user.
  std::size_t workers = 0;
  /// Admission control: jobs allowed to wait in the queue (excluding the
  /// ones actively running). submit() returns kInvalidJobId once the queue
  /// is full — backpressure the caller must handle, not a silent drop.
  std::size_t maxQueued = 64;
  /// Power-of-two shard count of the service's TableCache (see
  /// TableCacheOptions::shards). Jobs share one queue whatever the value.
  std::size_t shards = 1;
  /// In-memory entries in the per-user table cache (shared budget across
  /// the cache's shards).
  std::size_t cacheCapacity = 32;
  /// When non-empty, finished tables persist to `<dir>/<user>.uniqq` (the
  /// compact quantized container) and cold cache misses probe the same
  /// files (see TableCache).
  std::string persistDir;
  /// Pipeline configuration shared by every job.
  core::CalibrationPipelineOptions pipeline{};
};

/// Id returned by submit() when admission control rejects the job.
inline constexpr std::uint64_t kInvalidJobId = 0;

/// Multi-tenant calibration front end: accepts many named capture jobs,
/// runs them across a bounded worker pool with admission control, per-job
/// cancellation and deadlines, and lands every successful table in an LRU
/// per-user cache (see docs/SERVING.md). Failure isolation is absolute by
/// construction: the pipeline is total over non-empty captures, and the
/// worker wraps it in a catch-all, so one poisoned capture yields one
/// failed job — never a dead worker or a torn-down service.
///
/// Scheduling: one mutex guards one job map keyed by id; ids count 1, 2,
/// 3, ... so the map iterates in submission order. submit() hands each
/// admitted job to the service's own FIFO worker pool as one task; a task
/// whose job was cancelled while queued returns at once.
///
/// Observability: each job runs under a "serve.job" trace span and fills
/// its own obs::RunReport; queue depth, latency split (queue vs run), and
/// terminal-state counters live in the registry under "serve.jobs.*" /
/// "serve.queue.*" / "serve.job.*_ms".
class CalibrationService {
 public:
  using Options = CalibrationServiceOptions;

  explicit CalibrationService(Options opts = {});
  /// Cancels everything still queued, then waits for running jobs.
  ~CalibrationService();

  CalibrationService(const CalibrationService&) = delete;
  CalibrationService& operator=(const CalibrationService&) = delete;

  /// Submit a calibration job for `userId`. Returns the job id, or
  /// kInvalidJobId when the queue is full (the capture is not retained).
  /// The capture is shared, not copied — callers batching one capture
  /// across many jobs pay for it once.
  std::uint64_t submit(std::string userId,
                       std::shared_ptr<const sim::CalibrationCapture> capture,
                       JobOptions jobOpts = {});
  /// Convenience overload that takes ownership of a capture by value.
  std::uint64_t submit(std::string userId, sim::CalibrationCapture capture,
                       JobOptions jobOpts = {});

  /// Request cancellation. True when the request can still take effect —
  /// the job was queued (cancelled immediately) or running (flagged; the
  /// pipeline stops at its next stage boundary). False when the job is
  /// already terminal or unknown.
  bool cancel(std::uint64_t id);

  /// Block until the job reaches a terminal state; returns its result.
  /// Unknown ids (including kInvalidJobId) throw InvalidArgument.
  JobResult wait(std::uint64_t id);

  /// Block until every submitted job is terminal; returns all results in
  /// submission order and forgets them (a long-lived service must not
  /// accumulate results forever).
  std::vector<JobResult> drain();

  /// The per-user table cache (shared with BatchAoaEngine).
  TableCache& cache() { return cache_; }

  std::size_t workerCount() const { return pool_.threadCount(); }
  /// Jobs accepted but not yet picked up by a worker.
  std::size_t queuedCount() const;
  /// Jobs currently executing.
  std::size_t runningCount() const;

 private:
  struct Job;

  /// Pool task for one job: expire or run it, unless it left kQueued
  /// (cancelled) while it waited.
  void pickUp(const std::shared_ptr<Job>& job);
  void executeJob(const std::shared_ptr<Job>& job);
  /// Streaming-job body: replay every stop of the capture through a
  /// StreamingSession (cancelling on the token) and return the finalized
  /// result.
  core::PersonalHrtf runStreaming(const std::shared_ptr<Job>& job);
  void finishJob(const std::shared_ptr<Job>& job, JobState state);

  Options opts_;
  TableCache cache_;
  core::CalibrationPipeline pipeline_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  ///< guarded by mutex_
  std::uint64_t nextId_ = 1;    ///< guarded by mutex_
  std::size_t queued_ = 0;      ///< jobs in kQueued; guarded by mutex_
  std::size_t running_ = 0;     ///< jobs in kRunning; guarded by mutex_

  /// Declared last so it is destroyed first: joining the workers finishes
  /// every task before the state above goes away.
  common::ThreadPool pool_;
};

}  // namespace uniq::serve
