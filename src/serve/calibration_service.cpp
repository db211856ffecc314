#include "serve/calibration_service.h"

#include <algorithm>
#include <chrono>
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

/// Internal job record. State transitions happen under the service
/// mutex; the abort token is the only cross-thread channel used mid-run.
struct CalibrationService::Job {
  std::uint64_t id = 0;
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

CalibrationService::CalibrationService(Options opts)
    : opts_(std::move(opts)),
      cache_(TableCacheOptions{std::max<std::size_t>(opts_.cacheCapacity, 1),
                               opts_.persistDir, opts_.shards}),
      pipeline_(opts_.pipeline),
      pool_(resolveWorkers(opts_.workers)) {
  obs::registry()
      .gauge("serve.workers")
      .set(static_cast<double>(pool_.threadCount()));
}

CalibrationService::~CalibrationService() {
  // Cancel every waiting job; its pool task then returns at once. Running
  // jobs finish on their own, and pool_ (the last member) joins them before
  // the rest of the service is destroyed.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kQueued) continue;
    job->token.requestCancel();
    job->state = JobState::kCancelled;
    job->queueMs = obs::steadyMs() - job->submitMs;
    stateCounter(JobState::kCancelled).inc();
    queueDepthGauge().add(-1.0);
  }
  queued_ = 0;
  cv_.notify_all();
}

std::uint64_t CalibrationService::submit(
    std::string userId, std::shared_ptr<const sim::CalibrationCapture> capture,
    JobOptions jobOpts) {
  UNIQ_REQUIRE(capture != nullptr, "null capture");
  std::lock_guard<std::mutex> lock(mutex_);
  if (queued_ >= std::max<std::size_t>(opts_.maxQueued, 1)) {
    stateCounter(JobState::kRejected).inc();
    return kInvalidJobId;
  }

  auto job = std::make_shared<Job>();
  job->id = nextId_++;
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

  jobs_.emplace(job->id, job);
  stateCounter(JobState::kQueued).inc();  // serve.jobs.submitted
  queueDepthGauge().add(1.0);
  queueMaxDepthGauge().setMax(static_cast<double>(++queued_));
  pool_.submit([this, job] { pickUp(job); });
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

void CalibrationService::pickUp(const std::shared_ptr<Job>& job) {
  JobState state = JobState::kRunning;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    --queued_;
    queueDepthGauge().add(-1.0);
    job->queueMs = obs::steadyMs() - job->submitMs;
    // A deadline that passed while the job waited expires it here — the
    // caller's budget is wall time from submission, not run time.
    if (job->token.due()) {
      state = job->token.cancelRequested() ? JobState::kCancelled
                                           : JobState::kExpired;
    } else {
      ++running_;
      runningGauge().add(1.0);
      job->startMs = obs::steadyMs();
    }
    job->state = state;
  }
  if (state == JobState::kRunning)
    executeJob(job);
  else
    finishJob(job, state);
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
  JobState terminalState = JobState::kDone;
  try {
    auto personal =
        job->opts.streaming
            ? runStreaming(job)
            : pipeline_.run(*job->capture, &job->report, &job->token);
    if (personal.aborted) {
      terminalState = job->token.cancelRequested() ? JobState::kCancelled
                                                   : JobState::kExpired;
      std::lock_guard<std::mutex> lock(mutex_);
      job->diagnostics = std::move(personal.diagnostics);
    } else {
      auto table = std::make_shared<const core::HrtfTable>(
          std::move(personal.table));
      // Only genuinely personalized tables enter the per-user cache; the
      // kFailed population-average fallback must not masquerade as the
      // user's own table on the next lookup.
      if (personal.status != core::PipelineStatus::kFailed)
        cache_.put(job->userId, table);
      std::lock_guard<std::mutex> lock(mutex_);
      job->status = personal.status;
      job->table = std::move(table);
      job->diagnostics = std::move(personal.diagnostics);
    }
  } catch (const std::exception& e) {
    // The pipeline is total over non-empty captures, so this is a last
    // line of defense (empty capture, bad_alloc, ...): the job fails, the
    // worker and the service live on.
    std::lock_guard<std::mutex> lock(mutex_);
    job->status = core::PipelineStatus::kFailed;
    job->error = e.what();
  }
  finishJob(job, terminalState);
}

void CalibrationService::finishJob(const std::shared_ptr<Job>& job,
                                   JobState state) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->state == JobState::kRunning) {
      --running_;
      runningGauge().add(-1.0);
    }
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
  cv_.notify_all();
}

bool CalibrationService::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  auto& job = it->second;
  if (job->terminal()) return false;
  job->token.requestCancel();
  if (job->state == JobState::kQueued) {
    // Its pool task sees the state at pickup and returns at once.
    --queued_;
    queueDepthGauge().add(-1.0);
    job->state = JobState::kCancelled;
    job->queueMs = obs::steadyMs() - job->submitMs;
    stateCounter(JobState::kCancelled).inc();
    cv_.notify_all();
  }
  // kRunning: the token is flagged; the pipeline aborts at its next stage
  // boundary and the worker records the cancelled state.
  return true;
}

JobResult CalibrationService::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  UNIQ_REQUIRE(it != jobs_.end(), "unknown job id");
  const auto job = it->second;
  cv_.wait(lock, [&] { return job->terminal(); });
  return job->result();
}

std::vector<JobResult> CalibrationService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    for (const auto& [id, job] : jobs_)
      if (!job->terminal()) return false;
    return true;
  });
  // Ids ascend in submission order, and so does the map.
  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) results.push_back(job->result());
  jobs_.clear();
  return results;
}

std::size_t CalibrationService::queuedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

std::size_t CalibrationService::runningCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

}  // namespace uniq::serve
