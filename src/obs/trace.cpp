#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace uniq::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// What the record path stores: a plain POD with the span-name *pointer*
/// (names are required to be static literals, so no copy is needed on the
/// hot path — the std::string in the public SpanRecord is materialized
/// only when a snapshot is taken).
struct RawRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t depth;
  std::uint32_t tid;
  TraceId traceId;
  double startUs;
  double durUs;
};

/// Spans completed on one thread. The owning thread appends under `mutex`;
/// the lock is uncontended except while another thread drains, which keeps
/// the record path cheap ("lock-free enough") without losing spans that
/// finish concurrently with an export.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<RawRecord> records;
  std::uint32_t tid = 0;
};

/// Microseconds on the steady clock since its own fixed epoch, the one
/// steadyMs() reads.
double steadyUs() {
  const auto sinceEpoch = Clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(sinceEpoch).count();
}

struct TraceState {
  std::mutex mutex;  ///< guards `buffers`
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  /// steadyUs() at process start or the last clearTrace().
  std::atomic<double> epochUs{steadyUs()};
  std::atomic<std::uint64_t> nextSpanId{1};
  std::atomic<std::uint64_t> nextTraceId{1};
  std::atomic<std::uint32_t> nextTid{1};
  std::atomic<bool> enabled{true};
  std::atomic<std::size_t> maxSpansPerThread{1u << 18};
};

TraceState& state() {
  // Leaked on purpose: spans may still complete during static destruction.
  static TraceState* s = [] {
    auto* t = new TraceState();
    if (const char* env = std::getenv("UNIQ_OBSERVABILITY")) {
      if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
          std::strcmp(env, "false") == 0) {
        t->enabled.store(false, std::memory_order_relaxed);
      }
    }
    if (const char* env = std::getenv("UNIQ_TRACE_MAX_SPANS")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env) {
        t->maxSpansPerThread.store(static_cast<std::size_t>(parsed),
                                   std::memory_order_relaxed);
      }
    }
    return t;
  }();
  return *s;
}

/// Spans dropped by the per-thread buffer cap. Lives in the process-wide
/// registry so serve-load exports and the scrape endpoint surface it.
Counter& droppedCounter() {
  static Counter& c = registry().counter("obs.trace.dropped");
  return c;
}

/// The calling thread's active trace context (0 = none). A plain
/// thread_local: reads cost a few nanoseconds on the span hot path.
thread_local TraceId tlTraceId = 0;

/// Per-thread recording context. The buffer is shared with the global list
/// so records survive thread exit; the open-span stack is touched only by
/// the owning thread.
struct ThreadContext {
  std::shared_ptr<ThreadBuffer> buffer;
  std::vector<std::uint64_t> openIds;

  ThreadContext() : buffer(std::make_shared<ThreadBuffer>()) {
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    buffer->tid = s.nextTid.fetch_add(1, std::memory_order_relaxed);
    s.buffers.push_back(buffer);
  }
};

ThreadContext& threadContext() {
  thread_local ThreadContext ctx;
  return ctx;
}

}  // namespace

TraceId newTraceId() {
  return state().nextTraceId.fetch_add(1, std::memory_order_relaxed);
}

TraceId currentTraceId() { return tlTraceId; }

TraceContextScope::TraceContextScope(TraceId id) : prev_(tlTraceId) {
  tlTraceId = id;
}

TraceContextScope::~TraceContextScope() { tlTraceId = prev_; }

std::size_t traceMaxSpansPerThread() {
  return state().maxSpansPerThread.load(std::memory_order_relaxed);
}

void setTraceMaxSpansPerThread(std::size_t cap) {
  state().maxSpansPerThread.store(cap, std::memory_order_relaxed);
}

bool traceEnabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void setTraceEnabled(bool enabled) {
  state().enabled.store(enabled, std::memory_order_relaxed);
}

double nowUs() {
  return steadyUs() - state().epochUs.load(std::memory_order_relaxed);
}

void clearTrace() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& buffer : s.buffers) {
    std::lock_guard<std::mutex> bufLock(buffer->mutex);
    buffer->records.clear();
  }
  s.epochUs.store(steadyUs(), std::memory_order_relaxed);
}

std::vector<SpanRecord> collectSpans() {
  auto& s = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    buffers = s.buffers;
  }
  std::vector<SpanRecord> all;
  for (auto& buffer : buffers) {
    std::lock_guard<std::mutex> bufLock(buffer->mutex);
    all.reserve(all.size() + buffer->records.size());
    for (const auto& raw : buffer->records) {
      SpanRecord rec;
      rec.name = raw.name;
      rec.id = raw.id;
      rec.parent = raw.parent;
      rec.depth = raw.depth;
      rec.tid = raw.tid;
      rec.traceId = raw.traceId;
      rec.startUs = raw.startUs;
      rec.durUs = raw.durUs;
      all.push_back(std::move(rec));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.startUs != b.startUs ? a.startUs < b.startUs
                                            : a.id < b.id;
            });
  return all;
}

Span::Span(const char* name) : name_(name) {
  if (!traceEnabled()) return;
  auto& ctx = threadContext();
  id_ = state().nextSpanId.fetch_add(1, std::memory_order_relaxed);
  parent_ = ctx.openIds.empty() ? 0 : ctx.openIds.back();
  depth_ = static_cast<std::uint32_t>(ctx.openIds.size());
  traceId_ = tlTraceId;
  ctx.openIds.push_back(id_);
  active_ = true;
  startSteadyUs_ = steadyUs();
}

Span::~Span() {
  if (!active_) return;
  const double endSteadyUs = steadyUs();
  auto& ctx = threadContext();
  ctx.openIds.pop_back();
  RawRecord record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.depth = depth_;
  record.tid = ctx.buffer->tid;
  record.traceId = traceId_;
  // Both ends on the fixed steady epoch, so a span that straddles
  // clearTrace() keeps its true duration (and starts before the new
  // trace epoch).
  const double epochUs = state().epochUs.load(std::memory_order_relaxed);
  record.startUs = startSteadyUs_ - epochUs;
  record.durUs = endSteadyUs - startSteadyUs_;
  const std::size_t cap = traceMaxSpansPerThread();
  {
    std::lock_guard<std::mutex> lock(ctx.buffer->mutex);
    if (cap == 0 || ctx.buffer->records.size() < cap) {
      ctx.buffer->records.push_back(record);
      return;
    }
  }
  // Buffer full: drop the span (never grow without bound) and count it.
  droppedCounter().inc();
}

}  // namespace uniq::obs
