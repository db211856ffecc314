#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace uniq::obs {

/// One sampler tick: the cumulative registry snapshot at `atMs` plus the
/// derived per-window view (counter rates and histogram deltas) against the
/// previous tick.
struct TelemetryWindow {
  std::uint64_t seq = 0;   ///< window index (0 = first tick after start)
  double atMs = 0.0;       ///< sample time, ms since sampler start
  double dtMs = 0.0;       ///< width of this window in ms (>= 0)
  MetricsSnapshot cumulative;  ///< full registry snapshot at `atMs`

  struct CounterRate {
    std::string name;
    std::uint64_t delta = 0;  ///< increments inside this window
    double perSec = 0.0;      ///< delta / window seconds (0 when dt == 0)
  };
  /// Per-histogram window view: counts observed inside this window only,
  /// with quantiles estimated on the window delta (not the cumulative
  /// distribution), so a latency regression shows up immediately.
  struct HistogramWindow {
    std::string name;
    std::uint64_t count = 0;  ///< observations inside this window
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    /// Window-delta bucket counts; quantile() works on them directly, so
    /// consumers (SLO rules) can ask for arbitrary quantiles or merge
    /// windows.
    MetricsSnapshot::HistogramEntry delta;
  };
  std::vector<CounterRate> counterRates;
  std::vector<HistogramWindow> histogramWindows;

  /// Rate entry for counter `name`, or nullptr when absent.
  const CounterRate* counterRate(const std::string& name) const;
  /// Window view for histogram `name`, or nullptr when absent.
  const HistogramWindow* histogramWindow(const std::string& name) const;
};

struct TelemetrySamplerOptions {
  std::uint64_t intervalMs = 250;  ///< tick period for the background thread
  std::size_t ringCapacity = 240;  ///< windows retained (oldest evicted)
  /// When true, each tick also publishes obs.telemetry.* gauges (window
  /// seq, dt) back into the registry so exports show sampler liveness.
  bool exportGauges = true;
};

/// Background telemetry sampler: snapshots a Registry on a fixed interval,
/// derives per-window counter rates and histogram quantiles, and retains a
/// bounded ring of windows. One instance owns at most one thread; start()
/// and stop() are idempotent and the destructor always joins.
///
/// Windows are also observable synchronously: sampleNow() takes a tick on
/// the calling thread (usable with or without the background thread
/// running), which is what tests and `uniq serve-load`'s final report use
/// for deterministic boundaries.
class TelemetrySampler {
 public:
  using WindowCallback = std::function<void(const TelemetryWindow&)>;

  explicit TelemetrySampler(Registry& reg,
                            const TelemetrySamplerOptions& opts = {});
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Launch the background thread. No-op when already running.
  void start();
  /// Stop and join the background thread (final tick is NOT taken; call
  /// sampleNow() first if the tail window matters). No-op when stopped.
  void stop();
  /// Whether the background thread is running.
  bool running() const;

  /// Take one tick synchronously on the calling thread and return the
  /// produced window. Serialized against background ticks.
  TelemetryWindow sampleNow();

  /// Register a callback invoked after every tick (background or
  /// sampleNow) with the new window, on the ticking thread. Callbacks run
  /// under the sampler's tick lock — keep them short. Must be called
  /// before start().
  void onWindow(WindowCallback cb);

  /// Copy of the retained windows, oldest first.
  std::vector<TelemetryWindow> windows() const;
  /// The most recent window (default-constructed when none yet).
  TelemetryWindow latest() const;
  /// Total ticks taken since construction (monotonic, not capped by the
  /// ring).
  std::uint64_t windowCount() const;

  const TelemetrySamplerOptions& options() const { return opts_; }

 private:
  /// One tick (background or sampleNow); returns the window it retained,
  /// so the background loop keeps it without a copy.
  std::shared_ptr<const TelemetryWindow> tick();

  Registry& reg_;
  TelemetrySamplerOptions opts_;

  mutable std::mutex mutex_;  ///< guards ring_, seq_, callbacks
  /// Retained windows, immutable once taken; back() is the previous tick.
  std::deque<std::shared_ptr<const TelemetryWindow>> ring_;
  std::uint64_t seq_ = 0;
  std::vector<WindowCallback> callbacks_;

  mutable std::mutex runMutex_;  ///< guards thread_ / stopping_ transitions
  std::condition_variable stopCv_;
  std::thread thread_;
  bool stopping_ = false;
  bool threadRunning_ = false;

  std::chrono::steady_clock::time_point startTime_;
};

}  // namespace uniq::obs
