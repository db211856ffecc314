#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace uniq::obs {

/// Monotonic event counter. Increments are relaxed atomics, safe and cheap
/// from any thread (including pool workers in tight loops).
class Counter {
 public:
  /// Add `n` to the counter.
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Current value.
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Reset to zero (Registry::resetAll).
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value (or running-max) instrument for levels like queue depth or
/// cache size. All operations are thread-safe.
class Gauge {
 public:
  /// Overwrite the gauge with `v`.
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if `v` is larger (high-water-mark semantics).
  void setMax(double v) {
    double prev = value_.load(std::memory_order_relaxed);
    while (v > prev &&
           !value_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  /// Add `delta` (may be negative) atomically — up/down-counter semantics
  /// for levels maintained incrementally, like a service queue depth.
  void add(double delta) {
    double prev = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(prev, prev + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Current value.
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Reset to zero.
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bin layout for a log-scale histogram: `bins` buckets where bucket k
/// covers [lo * growth^k, lo * growth^(k+1)), plus implicit underflow
/// (v < lo, including zero and negatives) and overflow buckets.
struct HistogramOptions {
  double lo = 1.0;      ///< lower edge of bucket 0 (must be > 0)
  double growth = 2.0;  ///< per-bucket multiplicative width (must be > 1)
  std::size_t bins = 32;  ///< bucket count (excluding under/overflow)
};

/// Fixed-bin log-scale histogram. Observations are atomic per-bucket
/// increments — no locking, safe from concurrent pool workers. Bucket
/// edges are precomputed at construction so edge behaviour is exact:
/// a value equal to an edge lands in the bucket whose range starts there.
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& opts);

  /// Record one observation.
  void observe(double v);

  const HistogramOptions& options() const { return opts_; }
  /// Edges of the finite buckets: edges()[k] is the inclusive lower edge of
  /// bucket k; edges() has bins+1 entries (the last is the overflow edge).
  const std::vector<double>& edges() const { return edges_; }

  /// Count in finite bucket `k`.
  std::uint64_t binCount(std::size_t k) const {
    return counts_[k].load(std::memory_order_relaxed);
  }
  std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  /// Total observations (all buckets).
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of all observed values.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Estimated q-quantile (q clamped to [0, 1]) by log-linear interpolation
  /// inside the owning bucket: the true quantile and the estimate share a
  /// bucket, so the estimate is within a multiplicative factor of `growth`
  /// of the truth (see docs/OBSERVABILITY.md, "Quantile semantics").
  /// Returns 0.0 when the histogram is empty; quantiles landing in the
  /// underflow bucket return the lo edge, overflow returns the last edge.
  double quantile(double q) const;

  /// Zero every bucket and the count/sum (bin layout is kept).
  void reset();

 private:
  HistogramOptions opts_;
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Read-only copy of every instrument in a registry, taken atomically
/// enough for reporting (individual values are relaxed-loaded; the set of
/// instruments is exact). Entries are sorted by name.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramOptions options;
    std::vector<std::uint64_t> counts;  ///< finite buckets
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Same log-linear quantile estimate as Histogram::quantile, computed
    /// on the copied bucket counts (usable on per-window deltas too).
    double quantile(double q) const;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  /// Value of counter `name`, or 0 when absent.
  std::uint64_t counter(const std::string& name) const;
  /// Value of gauge `name`, or 0.0 when absent.
  double gauge(const std::string& name) const;
};

/// Process-wide metrics registry. Instruments are created on first lookup
/// and live for the process lifetime, so call sites may cache the returned
/// reference (typically in a function-local static). Lookups take a mutex;
/// the instruments themselves are lock-free.
class Registry {
 public:
  /// Counter named `name`, created on first use.
  Counter& counter(const std::string& name);
  /// Gauge named `name`, created on first use.
  Gauge& gauge(const std::string& name);
  /// Histogram named `name`; `opts` applies on first use only.
  Histogram& histogram(const std::string& name,
                       const HistogramOptions& opts = {});

  /// Copy of every instrument's current value, sorted by name.
  MetricsSnapshot snapshot() const;

  /// Zero every counter, gauge, and histogram (instruments stay
  /// registered). Tests and per-run reporting use this between runs.
  void resetAll();

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> instrument;
  };
  mutable std::mutex mutex_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

/// The process-wide registry used by the library's own instrumentation
/// (FFT plan cache, thread pool, pipeline stages).
Registry& registry();

}  // namespace uniq::obs
