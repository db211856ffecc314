#include "obs/telemetry.h"

#include <algorithm>

namespace uniq::obs {

namespace {

/// Cumulative value of counter `name` in `snap`, or 0 when absent (a
/// counter registered mid-run has no previous value; treating it as 0
/// makes its first window delta equal its full value, which is right).
std::uint64_t counterIn(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

const MetricsSnapshot::HistogramEntry* histogramIn(
    const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

/// `cur - prev` per bucket, saturating at 0 so a resetAll() between ticks
/// produces an empty window instead of wrapped-around garbage.
MetricsSnapshot::HistogramEntry histogramDelta(
    const MetricsSnapshot::HistogramEntry& cur,
    const MetricsSnapshot::HistogramEntry* prev) {
  MetricsSnapshot::HistogramEntry d = cur;
  if (prev == nullptr || prev->counts.size() != cur.counts.size()) return d;
  const auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  for (std::size_t k = 0; k < d.counts.size(); ++k)
    d.counts[k] = sub(cur.counts[k], prev->counts[k]);
  d.underflow = sub(cur.underflow, prev->underflow);
  d.overflow = sub(cur.overflow, prev->overflow);
  d.count = sub(cur.count, prev->count);
  d.sum = cur.sum >= prev->sum ? cur.sum - prev->sum : 0.0;
  return d;
}

}  // namespace

const TelemetryWindow::CounterRate* TelemetryWindow::counterRate(
    const std::string& name) const {
  for (const auto& r : counterRates)
    if (r.name == name) return &r;
  return nullptr;
}

const TelemetryWindow::HistogramWindow* TelemetryWindow::histogramWindow(
    const std::string& name) const {
  for (const auto& h : histogramWindows)
    if (h.name == name) return &h;
  return nullptr;
}

TelemetrySampler::TelemetrySampler(Registry& reg,
                                   const TelemetrySamplerOptions& opts)
    : reg_(reg), opts_(opts), startTime_(std::chrono::steady_clock::now()) {
  if (opts_.ringCapacity == 0) opts_.ringCapacity = 1;
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  std::lock_guard<std::mutex> lock(runMutex_);
  if (threadRunning_) return;
  stopping_ = false;
  threadRunning_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(runMutex_);
    while (!stopping_) {
      const auto interval = std::chrono::milliseconds(opts_.intervalMs);
      if (stopCv_.wait_for(lock, interval, [this] { return stopping_; }))
        break;
      lock.unlock();
      tick();
      lock.lock();
    }
  });
}

void TelemetrySampler::stop() {
  std::thread toJoin;
  {
    std::lock_guard<std::mutex> lock(runMutex_);
    if (!threadRunning_) return;
    stopping_ = true;
    stopCv_.notify_all();
    toJoin = std::move(thread_);
    threadRunning_ = false;
  }
  if (toJoin.joinable()) toJoin.join();
}

bool TelemetrySampler::running() const {
  std::lock_guard<std::mutex> lock(runMutex_);
  return threadRunning_;
}

TelemetryWindow TelemetrySampler::sampleNow() { return *tick(); }

std::shared_ptr<const TelemetryWindow> TelemetrySampler::tick() {
  // Snapshot outside the tick lock: registry snapshotting takes the
  // registry mutex and can be slow with many instruments.
  MetricsSnapshot snap = reg_.snapshot();
  const double atMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - startTime_)
          .count();

  std::vector<WindowCallback> callbacks;
  std::shared_ptr<const TelemetryWindow> done;
  {
    TelemetryWindow window;
    std::lock_guard<std::mutex> lock(mutex_);
    window.seq = seq_++;
    window.atMs = atMs;
    // The newest retained window holds the previous tick's snapshot (the
    // ring always keeps at least one).
    const TelemetryWindow* prev = ring_.empty() ? nullptr : ring_.back().get();
    window.dtMs = prev != nullptr ? std::max(0.0, atMs - prev->atMs) : atMs;
    const double dtSec = window.dtMs / 1000.0;

    for (const auto& c : snap.counters) {
      TelemetryWindow::CounterRate rate;
      rate.name = c.name;
      const std::uint64_t before =
          prev != nullptr ? counterIn(prev->cumulative, c.name) : 0;
      rate.delta = c.value >= before ? c.value - before : 0;
      rate.perSec =
          dtSec > 0.0 ? static_cast<double>(rate.delta) / dtSec : 0.0;
      window.counterRates.push_back(std::move(rate));
    }
    for (const auto& h : snap.histograms) {
      TelemetryWindow::HistogramWindow hw;
      hw.name = h.name;
      hw.delta = histogramDelta(
          h, prev != nullptr ? histogramIn(prev->cumulative, h.name) : nullptr);
      hw.count = hw.delta.count;
      hw.p50 = hw.delta.quantile(0.50);
      hw.p90 = hw.delta.quantile(0.90);
      hw.p99 = hw.delta.quantile(0.99);
      window.histogramWindows.push_back(std::move(hw));
    }
    window.cumulative = std::move(snap);

    done = std::make_shared<const TelemetryWindow>(std::move(window));
    ring_.push_back(done);
    while (ring_.size() > opts_.ringCapacity) ring_.pop_front();
    callbacks = callbacks_;
  }

  if (opts_.exportGauges) {
    // Registry lookups lock a mutex, but this runs once per tick (a few Hz
    // at most), so the cost is irrelevant — and per-instance caching would
    // be wrong for samplers over different registries.
    reg_.gauge("obs.telemetry.window_seq").set(static_cast<double>(done->seq));
    reg_.gauge("obs.telemetry.window_dt_ms").set(done->dtMs);
  }
  for (const auto& cb : callbacks) cb(*done);
  return done;
}

void TelemetrySampler::onWindow(WindowCallback cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  callbacks_.push_back(std::move(cb));
}

std::vector<TelemetryWindow> TelemetrySampler::windows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TelemetryWindow> out;
  out.reserve(ring_.size());
  for (const auto& w : ring_) out.push_back(*w);
  return out;
}

TelemetryWindow TelemetrySampler::latest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.empty() ? TelemetryWindow{} : *ring_.back();
}

std::uint64_t TelemetrySampler::windowCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

}  // namespace uniq::obs
