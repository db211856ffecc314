#include "serve/calibration_service.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "stream/streaming_session.h"

namespace uniq::serve {

namespace {

obs::Gauge& queueDepthGauge() {
  static obs::Gauge& g = obs::registry().gauge("serve.queue.depth");
  return g;
}
obs::Gauge& queueMaxDepthGauge() {
  static obs::Gauge& g = obs::registry().gauge("serve.queue.max_depth");
  return g;
}
obs::Gauge& runningGauge() {
  static obs::Gauge& g = obs::registry().gauge("serve.jobs.running");
  return g;
}
obs::Counter& rejectedByShardCounter() {
  static obs::Counter& c =
      obs::registry().counter("serve.jobs.rejected_by_shard");
  return c;
}
obs::Counter& stateCounter(JobState state) {
  static obs::Counter& submitted =
      obs::registry().counter("serve.jobs.submitted");
  static obs::Counter& done = obs::registry().counter("serve.jobs.done");
  static obs::Counter& cancelled =
      obs::registry().counter("serve.jobs.cancelled");
  static obs::Counter& expired =
      obs::registry().counter("serve.jobs.expired");
  static obs::Counter& rejected =
      obs::registry().counter("serve.jobs.rejected");
  switch (state) {
    case JobState::kDone:
      return done;
    case JobState::kCancelled:
      return cancelled;
    case JobState::kExpired:
      return expired;
    case JobState::kRejected:
      return rejected;
    default:
      return submitted;
  }
}
const obs::HistogramOptions kLatencyBins{0.1, 2.0, 24};

std::size_t resolveWorkers(std::size_t requested) {
  if (requested > 0) return requested;
  // Default to the global pool's executing-thread count (UNIQ_NUM_THREADS
  // or hardware concurrency). The global pool subtracts the parallelFor
  // caller; the service's workers run whole jobs while the submitting thread
  // waits, so it keeps the full count.
  return common::globalPool().threadCount() + 1;
}

bool isPowerOfTwo(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::size_t log2PowerOfTwo(std::size_t n) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

/// Internal job record. State transitions happen under the owning shard's
/// mutex; the abort token is the only cross-thread channel used mid-run.
struct CalibrationService::Job {
  std::uint64_t id = 0;
  std::size_t shardIdx = 0;
  std::string userId;
  std::shared_ptr<const sim::CalibrationCapture> capture;
  JobOptions opts;
  obs::TraceId traceId = 0;  ///< job's trace context (allocated at submit)
  core::RunAbortToken token;

  JobState state = JobState::kQueued;
  core::PipelineStatus status = core::PipelineStatus::kFailed;
  std::shared_ptr<const core::HrtfTable> table;
  obs::RunReport report;
  std::vector<obs::Diagnostic> diagnostics;
  std::string error;

  double submitMs = 0.0;
  double startMs = 0.0;
  double queueMs = 0.0;
  double runMs = 0.0;

  bool terminal() const {
    return state != JobState::kQueued && state != JobState::kRunning;
  }

  JobResult result() const {
    JobResult r;
    r.id = id;
    r.userId = userId;
    r.traceId = traceId;
    r.state = state;
    r.status = status;
    r.table = table;
    r.report = report;
    r.diagnostics = diagnostics;
    r.queueMs = queueMs;
    r.runMs = runMs;
    r.error = error;
    return r;
  }
};

/// One independent submission lane: its own lock, FIFO, job ledger, and
/// instruments. Only the worker pool is shared across shards.
struct CalibrationService::Shard {
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::shared_ptr<Job>> queued;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs;
  std::size_t running = 0;
  std::size_t drainersInFlight = 0;
  bool shutdown = false;
  obs::Gauge* depthGauge = nullptr;     ///< serve.shard.N.queue_depth
  obs::Counter* rejected = nullptr;     ///< serve.shard.N.rejected
};

CalibrationService::CalibrationService(Options opts)
    : opts_(std::move(opts)),
      cache_(TableCacheOptions{
          std::max<std::size_t>(opts_.cacheCapacity, 1), opts_.persistDir,
          opts_.cacheShards == 0
              ? (isPowerOfTwo(opts_.shards) ? opts_.shards : 1)
              : opts_.cacheShards}),
      pipeline_(opts_.pipeline),
      pool_(resolveWorkers(opts_.workers)) {
  UNIQ_REQUIRE(isPowerOfTwo(opts_.shards),
               "service shard count must be a power of two");
  shardBits_ = log2PowerOfTwo(opts_.shards);
  maxQueuedPerShard_ =
      std::max<std::size_t>(1, opts_.maxQueued / opts_.shards);
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string prefix = "serve.shard." + std::to_string(i);
    shard->depthGauge = &obs::registry().gauge(prefix + ".queue_depth");
    shard->rejected = &obs::registry().counter(prefix + ".rejected");
    shards_.push_back(std::move(shard));
  }
  obs::registry()
      .gauge("serve.workers")
      .set(static_cast<double>(pool_.threadCount()));
  obs::registry()
      .gauge("serve.shards")
      .set(static_cast<double>(shards_.size()));
  rejectedByShardCounter();  // register at 0 so exports always include it
}

CalibrationService::~CalibrationService() {
  // Phase 1: close every shard and cancel its waiting jobs; running jobs
  // finish on their own (their capture and token live in the shared Job
  // record). Phase 2: wait for each shard's workers to come home.
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.shutdown = true;
    for (const auto& job : shard.queued) {
      job->token.requestCancel();
      job->state = JobState::kCancelled;
      job->queueMs = obs::steadyMs() - job->submitMs;
      stateCounter(JobState::kCancelled).inc();
      queueDepthGauge().add(-1.0);
      shard.depthGauge->add(-1.0);
      queuedTotal_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.queued.clear();
    shard.cv.notify_all();
  }
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::unique_lock<std::mutex> lock(shard.mutex);
    shard.cv.wait(
        lock, [&] { return shard.running == 0 && shard.drainersInFlight == 0; });
  }
}

CalibrationService::Shard& CalibrationService::shardForUser(
    const std::string& userId) {
  // Power-of-two count makes the modulo a mask; the same hash the table
  // cache uses, so a user's jobs and tables land on aligned shards.
  return *shards_[std::hash<std::string>{}(userId) & (shards_.size() - 1)];
}

CalibrationService::Shard& CalibrationService::shardForId(std::uint64_t id) {
  // Job ids carry their shard in the low bits: id = (seq << bits) | shard.
  return *shards_[id & (shards_.size() - 1)];
}

std::uint64_t CalibrationService::submit(
    std::string userId, std::shared_ptr<const sim::CalibrationCapture> capture,
    JobOptions jobOpts) {
  UNIQ_REQUIRE(capture != nullptr, "null capture");
  const std::size_t shardIdx =
      std::hash<std::string>{}(userId) & (shards_.size() - 1);
  Shard& shard = *shards_[shardIdx];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.shutdown || shard.queued.size() >= maxQueuedPerShard_) {
    stateCounter(JobState::kRejected).inc();
    shard.rejected->inc();
    rejectedByShardCounter().inc();
    return kInvalidJobId;
  }

  auto job = std::make_shared<Job>();
  // Global sequence in the high bits, shard in the low bits: ids stay
  // unique and self-routing, and with shards=1 (bits=0) they are exactly
  // the pre-sharding 1,2,3,... sequence.
  job->id = (nextSeq_.fetch_add(1, std::memory_order_relaxed) << shardBits_) |
            static_cast<std::uint64_t>(shardIdx);
  job->shardIdx = shardIdx;
  job->userId = std::move(userId);
  job->capture = std::move(capture);
  job->opts = jobOpts;
  // Every job gets its own trace context at admission; the worker installs
  // it around the run so all spans (on any pool thread) attribute to it.
  job->traceId = obs::newTraceId();
  job->submitMs = obs::steadyMs();
  if (jobOpts.deadlineMs > 0.0) {
    job->token.setDeadline(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(jobOpts.deadlineMs)));
  }

  shard.queued.push_back(job);
  shard.jobs[job->id] = job;
  {
    std::lock_guard<std::mutex> orderLock(orderMutex_);
    submissionOrder_.push_back(job->id);
  }
  stateCounter(JobState::kQueued).inc();  // serve.jobs.submitted
  queueDepthGauge().add(1.0);
  shard.depthGauge->add(1.0);
  const std::size_t depth =
      queuedTotal_.fetch_add(1, std::memory_order_relaxed) + 1;
  queueMaxDepthGauge().setMax(static_cast<double>(depth));
  pumpLocked(shard);
  return job->id;
}

std::uint64_t CalibrationService::submit(std::string userId,
                                         sim::CalibrationCapture capture,
                                         JobOptions jobOpts) {
  return submit(std::move(userId),
                std::make_shared<const sim::CalibrationCapture>(
                    std::move(capture)),
                jobOpts);
}

void CalibrationService::pumpLocked(Shard& shard) {
  // One drainer task can feed one worker; spawn up to the pool width per
  // shard. Only drainers not busy running a job can take queued work, so
  // spawn until the idle ones cover the queue. A drainer finding its queue
  // already empty exits immediately, so a spare one is cheap, but a missing
  // one would strand queued work behind a running job.
  while (shard.drainersInFlight < pool_.threadCount() &&
         shard.drainersInFlight - shard.running < shard.queued.size()) {
    ++shard.drainersInFlight;
    pool_.submit([this, &shard] { drainQueue(shard); });
  }
}

void CalibrationService::drainQueue(Shard& shard) {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.queued.empty()) {
        --shard.drainersInFlight;
        shard.cv.notify_all();
        return;
      }
      job = shard.queued.front();
      shard.queued.pop_front();
      queueDepthGauge().add(-1.0);
      shard.depthGauge->add(-1.0);
      queuedTotal_.fetch_sub(1, std::memory_order_relaxed);
      job->queueMs = obs::steadyMs() - job->submitMs;
      // A deadline that passed while the job waited expires it here — the
      // caller's budget is wall time from submission, not run time.
      if (job->token.due()) {
        job->state = job->token.cancelRequested() ? JobState::kCancelled
                                                  : JobState::kExpired;
      } else {
        job->state = JobState::kRunning;
        ++shard.running;
        job->startMs = obs::steadyMs();
      }
    }
    if (job->state == JobState::kRunning) {
      runningGauge().add(1.0);
      executeJob(job);
      runningGauge().add(-1.0);
    } else {
      finishJob(job, job->state);
    }
  }
}

core::PersonalHrtf CalibrationService::runStreaming(
    const std::shared_ptr<Job>& job) {
  UNIQ_SPAN("serve.job.streaming");
  static obs::Counter& streamingJobs =
      obs::registry().counter("serve.jobs.streaming");
  streamingJobs.inc();

  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(*job->capture), opts_.pipeline);
  // The capture is already complete, so every stop is replayed: no early
  // stop on convergence, and the table is bitwise equal to a batch job's.
  for (std::size_t i = 0; i < job->capture->stops.size(); ++i) {
    // Between-push token polls give streaming jobs finer-grained
    // cancellation than the batch pipeline's stage boundaries.
    if (job->token.due()) {
      session.cancel();
      break;
    }
    session.push(job->capture->stops[i], i);
  }
  return session.finalize(&job->report).personal;
}

void CalibrationService::executeJob(const std::shared_ptr<Job>& job) {
  obs::TraceContextScope traceScope(job->traceId);
  UNIQ_SPAN("serve.job");
  Shard& shard = *shards_[job->shardIdx];
  JobState terminalState = JobState::kDone;
  try {
    auto personal =
        job->opts.streaming
            ? runStreaming(job)
            : pipeline_.run(*job->capture, &job->report, &job->token);
    if (personal.aborted) {
      terminalState = job->token.cancelRequested() ? JobState::kCancelled
                                                   : JobState::kExpired;
      std::lock_guard<std::mutex> lock(shard.mutex);
      job->diagnostics = std::move(personal.diagnostics);
    } else {
      auto table = std::make_shared<const core::HrtfTable>(
          std::move(personal.table));
      // Only genuinely personalized tables enter the per-user cache; the
      // kFailed population-average fallback must not masquerade as the
      // user's own table on the next lookup.
      if (personal.status != core::PipelineStatus::kFailed)
        cache_.put(job->userId, table);
      std::lock_guard<std::mutex> lock(shard.mutex);
      job->status = personal.status;
      job->table = std::move(table);
      job->diagnostics = std::move(personal.diagnostics);
    }
  } catch (const std::exception& e) {
    // The pipeline is total over non-empty captures, so this is a last
    // line of defense (empty capture, bad_alloc, ...): the job fails, the
    // worker and the service live on.
    std::lock_guard<std::mutex> lock(shard.mutex);
    job->status = core::PipelineStatus::kFailed;
    job->error = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    --shard.running;
  }
  finishJob(job, terminalState);
}

void CalibrationService::finishJob(const std::shared_ptr<Job>& job,
                                   JobState state) {
  Shard& shard = *shards_[job->shardIdx];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    job->state = state;
    job->runMs = job->startMs > 0.0 ? obs::steadyMs() - job->startMs : 0.0;
  }
  stateCounter(state).inc();
  if (state == JobState::kDone &&
      job->status == core::PipelineStatus::kFailed) {
    static obs::Counter& failed =
        obs::registry().counter("serve.jobs.failed");
    failed.inc();
  }
  obs::registry()
      .histogram("serve.job.queue_ms", kLatencyBins)
      .observe(job->queueMs);
  obs::registry()
      .histogram("serve.job.run_ms", kLatencyBins)
      .observe(job->runMs);
  shard.cv.notify_all();
}

bool CalibrationService::cancel(std::uint64_t id) {
  Shard& shard = shardForId(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.jobs.find(id);
  if (it == shard.jobs.end()) return false;
  auto& job = it->second;
  if (job->terminal()) return false;
  job->token.requestCancel();
  if (job->state == JobState::kQueued) {
    const auto pos = std::find(shard.queued.begin(), shard.queued.end(), job);
    if (pos != shard.queued.end()) {
      shard.queued.erase(pos);
      queueDepthGauge().add(-1.0);
      shard.depthGauge->add(-1.0);
      queuedTotal_.fetch_sub(1, std::memory_order_relaxed);
    }
    job->state = JobState::kCancelled;
    job->queueMs = obs::steadyMs() - job->submitMs;
    stateCounter(JobState::kCancelled).inc();
    shard.cv.notify_all();
  }
  // kRunning: the token is flagged; the pipeline aborts at its next stage
  // boundary and the worker records the cancelled state.
  return true;
}

JobResult CalibrationService::wait(std::uint64_t id) {
  Shard& shard = shardForId(id);
  std::unique_lock<std::mutex> lock(shard.mutex);
  const auto it = shard.jobs.find(id);
  UNIQ_REQUIRE(it != shard.jobs.end(), "unknown job id");
  const auto job = it->second;
  shard.cv.wait(lock, [&] { return job->terminal(); });
  return job->result();
}

std::vector<JobResult> CalibrationService::drain() {
  // Quiesce shard by shard; a shard already drained stays drained because
  // drain() races only with new submissions, which the caller owns.
  std::unordered_map<std::uint64_t, JobResult> finished;
  for (auto& shardPtr : shards_) {
    Shard& shard = *shardPtr;
    std::unique_lock<std::mutex> lock(shard.mutex);
    shard.cv.wait(lock, [&] {
      for (const auto& [id, job] : shard.jobs)
        if (!job->terminal()) return false;
      return true;
    });
    for (const auto& [id, job] : shard.jobs) finished.emplace(id, job->result());
    shard.jobs.clear();
  }
  std::lock_guard<std::mutex> orderLock(orderMutex_);
  std::vector<JobResult> results;
  results.reserve(submissionOrder_.size());
  for (const auto id : submissionOrder_) {
    const auto it = finished.find(id);
    if (it != finished.end()) results.push_back(std::move(it->second));
  }
  submissionOrder_.clear();
  return results;
}

std::size_t CalibrationService::queuedCount() const {
  return queuedTotal_.load(std::memory_order_relaxed);
}

std::size_t CalibrationService::runningCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->running;
  }
  return total;
}

}  // namespace uniq::serve
