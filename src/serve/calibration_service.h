#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
  /// Admission control: jobs allowed to wait in the queues (excluding the
  /// ones actively running). The budget is split evenly across shards
  /// (at least 1 per shard); submit() returns kInvalidJobId once the
  /// user's shard is full — backpressure the caller must handle, not a
  /// silent drop. With shards=1 this is exactly the pre-sharding global
  /// queue bound.
  std::size_t maxQueued = 64;
  /// Power-of-two shard count for the submission path. Each shard owns its
  /// own mutex, job queue, and job map, so admission, cancellation, and
  /// completion on different shards never contend on one global lock; the
  /// worker pool stays shared. 1 reproduces the single-queue service
  /// exactly (same ids, same FIFO order, same admission bound — pinned by
  /// tests).
  std::size_t shards = 1;
  /// In-memory entries in the per-user table cache (shared budget across
  /// the cache's shards).
  std::size_t cacheCapacity = 32;
  /// Shard count for the table cache (power of two; defaults to `shards`
  /// when 0).
  std::size_t cacheShards = 0;
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
/// Scale shape: users hash onto 2^k independent shards (per-shard mutex,
/// queue, and job map) over one shared worker pool, so a million-user
/// ingress stops serializing on a single service lock. Job ids encode the
/// shard in their low bits; everything else routes by id.
///
/// Observability: each job runs under a "serve.job" trace span and fills
/// its own obs::RunReport; queue depth, latency split (queue vs run), and
/// terminal-state counters live in the registry under "serve.jobs.*" /
/// "serve.queue.*", with per-shard depth and rejection instruments under
/// "serve.shard.N.*" plus a "serve.jobs.rejected_by_shard" counter so
/// shard imbalance is observable.
class CalibrationService {
 public:
  using Options = CalibrationServiceOptions;

  explicit CalibrationService(Options opts = {});
  /// Cancels everything still queued, then waits for running jobs.
  ~CalibrationService();

  CalibrationService(const CalibrationService&) = delete;
  CalibrationService& operator=(const CalibrationService&) = delete;

  /// Submit a calibration job for `userId`. Returns the job id, or
  /// kInvalidJobId when the user's shard queue is full (the capture is not
  /// retained). The capture is shared, not copied — callers batching one
  /// capture across many jobs pay for it once.
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
  std::size_t shardCount() const { return shards_.size(); }
  /// Jobs accepted but not yet picked up by a worker (all shards).
  std::size_t queuedCount() const;
  /// Jobs currently executing (all shards).
  std::size_t runningCount() const;

 private:
  struct Job;
  struct Shard;

  Shard& shardForUser(const std::string& userId);
  Shard& shardForId(std::uint64_t id);

  /// Ensure enough queue-drainer tasks are in flight for the shard's queued
  /// work; caller holds the shard mutex.
  void pumpLocked(Shard& shard);
  /// Drain loop body run on a pool worker: pop and execute the shard's jobs
  /// until its queue is empty.
  void drainQueue(Shard& shard);
  void executeJob(const std::shared_ptr<Job>& job);
  /// Streaming-job body: replay every stop of the capture through a
  /// StreamingSession (cancelling on the token) and return the finalized
  /// result.
  core::PersonalHrtf runStreaming(const std::shared_ptr<Job>& job);
  void finishJob(const std::shared_ptr<Job>& job, JobState state);

  Options opts_;
  TableCache cache_;
  core::CalibrationPipeline pipeline_;
  common::ThreadPool pool_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shardBits_ = 0;       ///< log2(shards): id low bits
  std::size_t maxQueuedPerShard_ = 0;

  /// Global submission sequence (drives job ids and drain() ordering).
  std::atomic<std::uint64_t> nextSeq_{1};
  /// Aggregate queue depth across shards (metrics + queuedCount()).
  std::atomic<std::size_t> queuedTotal_{0};

  /// Submission order across shards, for drain(); guarded by orderMutex_.
  mutable std::mutex orderMutex_;
  std::vector<std::uint64_t> submissionOrder_;
};

}  // namespace uniq::serve
