#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"

namespace uniq::obs {

/// Sanitize a metric name for the Prometheus text exposition format:
/// every character outside [a-zA-Z0-9_:] becomes '_' and the result is
/// prefixed with "uniq_" (which also keeps leading digits legal).
std::string prometheusName(const std::string& name);

/// Render a snapshot in Prometheus text exposition format 0.0.4:
/// counters gain a _total suffix, gauges export as-is, histograms export
/// cumulative _bucket{le="..."} series (underflow folded into the first
/// bucket, +Inf equal to _count) plus _sum and _count. When `window` is
/// non-null its per-window quantiles export as <name>_window_q{q="..."}
/// gauges, each window's observation count as <name>_window_observations,
/// and rates as <name>_rate gauges; when `slo` is non-null each rule
/// exports uniq_slo_{value,limit,breached}{rule="..."} series.
std::string prometheusText(const MetricsSnapshot& snapshot,
                           const TelemetryWindow* window = nullptr,
                           const std::vector<SloStatus>* slo = nullptr);

/// The text `uniq monitor` prints for one scrape of a prometheusText()
/// document: non-zero rates, per-window p50 / p90 / p99 (a histogram
/// whose latest window saw no observation prints `-`, not zeros) and SLO
/// status.
std::string monitorView(const std::string& exposition);

/// Minimal localhost HTTP server for scraping telemetry: binds 127.0.0.1
/// on the requested port (0 = ephemeral; see port()), accepts one
/// connection at a time on a background thread, and answers every request
/// with 200 OK and the content callback's output. Not a general web
/// server — no TLS, no routing, no keep-alive — just enough for
/// `curl localhost:PORT/metrics`, Prometheus, and `uniq monitor`.
class ScrapeServer {
 public:
  using ContentFn = std::function<std::string()>;

  /// Binds and starts serving immediately. Throws common::Error (via
  /// UNIQ_REQUIRE) when the port cannot be bound.
  ScrapeServer(ContentFn content, std::uint16_t port);
  ~ScrapeServer();

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// The actually bound port (resolves port 0 requests).
  std::uint16_t port() const { return port_; }

  /// Stop accepting and join the serving thread. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  void serveLoop();

  ContentFn content_;
  int listenFd_ = -1;
  int wakeFds_[2] = {-1, -1};  ///< stop() writes [1] to end serveLoop's poll
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Blocking one-shot HTTP GET against 127.0.0.1:`port` (the client half of
/// ScrapeServer, reused by `uniq monitor` and tests). Returns false on
/// connect/read failure; on success fills `body` with the response body
/// (headers stripped).
bool httpGet(std::uint16_t port, const std::string& path, std::string* body,
             std::string* error = nullptr);

}  // namespace uniq::obs
