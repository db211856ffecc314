// Continuous-telemetry tests: Histogram::quantile accuracy against exact
// percentiles, the TelemetrySampler window pipeline, declarative
// SLO rules, the Prometheus exposition + scrape server, and trace-context
// propagation through the thread pool and the calibration service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "head/subject.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/calibration_service.h"
#include "sim/measurement_session.h"

namespace uniq {
namespace {

// ---------------------------------------------------------------------------
// Histogram::quantile

TEST(HistogramQuantile, EmptyAndClampedInputs) {
  obs::Histogram h(obs::HistogramOptions{1.0, 2.0, 8});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.observe(3.0);
  // q outside [0, 1] clamps instead of misbehaving.
  EXPECT_GT(h.quantile(-0.5), 0.0);
  EXPECT_GT(h.quantile(1.5), 0.0);
  EXPECT_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_EQ(h.quantile(1.5), h.quantile(1.0));
}

TEST(HistogramQuantile, UnderflowAndOverflowBuckets) {
  obs::Histogram h(obs::HistogramOptions{1.0, 2.0, 4});
  for (int i = 0; i < 10; ++i) h.observe(0.01);  // all underflow
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);        // lo edge

  obs::Histogram over(obs::HistogramOptions{1.0, 2.0, 4});
  for (int i = 0; i < 10; ++i) over.observe(1e9);  // all overflow
  // Last finite edge is lo * growth^bins = 16.
  EXPECT_DOUBLE_EQ(over.quantile(0.5), 16.0);
}

TEST(HistogramQuantile, EstimateStaysInsideTheOwningBucket) {
  const obs::HistogramOptions opts{0.001, 2.0, 32};
  obs::Histogram h(opts);
  std::vector<double> exact;
  Pcg32 rng(2024, 7);
  for (int i = 0; i < 20000; ++i) {
    // Log-normal-ish latencies spanning several decades.
    const double v = std::exp(rng.gaussian() * 1.5 - 2.0);
    h.observe(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  // The estimate and the true quantile share a bucket, so they agree within
  // a multiplicative factor of `growth` (the documented error bound; the
  // 1.01 slack covers rank-convention differences at bucket edges).
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double est = h.quantile(q);
    const double truth =
        exact[std::min(exact.size() - 1,
                       static_cast<std::size_t>(
                           q * static_cast<double>(exact.size())))];
    EXPECT_LE(est, truth * opts.growth * 1.01) << "q=" << q;
    EXPECT_GE(est, truth / (opts.growth * 1.01)) << "q=" << q;
  }
}

TEST(HistogramQuantile, SnapshotEntryMatchesLiveHistogram) {
  obs::Registry reg;
  auto& h = reg.histogram("t", obs::HistogramOptions{0.01, 2.0, 16});
  Pcg32 rng(9, 3);
  for (int i = 0; i < 5000; ++i) h.observe(std::exp(rng.gaussian()));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  for (const double q : {0.25, 0.5, 0.75, 0.99})
    EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(q), h.quantile(q));
}

// serve-load's exact lookup quantiles (eval::percentile over every sample)
// and the log-binned histogram must agree on the same latency stream within
// the bin-growth budget — the estimator_check contract the nightly watches.
TEST(HistogramQuantile, AgreesWithExactQuantileWithinGrowthBudget) {
  const obs::HistogramOptions opts{1e-4, 2.0, 32};  // serve.load.lookup_ms
  obs::Histogram hist(opts);
  std::vector<double> samples;
  Pcg32 rng(77, 13);
  for (int i = 0; i < 50000; ++i) {
    // Cache-lookup-shaped latencies: a fast mode around a few microseconds
    // with a heavy slow tail.
    const double ms = 0.002 * std::exp(std::abs(rng.gaussian()) * 2.0);
    hist.observe(ms);
    samples.push_back(ms);
  }
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact = eval::percentile(samples, 100.0 * q);
    const double est = hist.quantile(q);
    ASSERT_GT(exact, 0.0);
    EXPECT_LE(est / exact, opts.growth * 1.01) << "q=" << q;
    EXPECT_GE(est / exact, 1.0 / (opts.growth * 1.01)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// TelemetrySampler

TEST(TelemetrySampler, WindowsCarryCounterRatesAndHistogramDeltas) {
  obs::Registry reg;
  auto& ops = reg.counter("ops");
  auto& lat = reg.histogram("lat", obs::HistogramOptions{0.01, 2.0, 16});
  obs::TelemetrySampler sampler(reg, {});

  ops.inc(100);
  lat.observe(1.0);
  const auto w0 = sampler.sampleNow();
  EXPECT_EQ(w0.seq, 0u);
  ASSERT_NE(w0.counterRate("ops"), nullptr);
  EXPECT_EQ(w0.counterRate("ops")->delta, 100u);

  ops.inc(50);
  lat.observe(2.0);
  lat.observe(4.0);
  const auto w1 = sampler.sampleNow();
  EXPECT_EQ(w1.seq, 1u);
  EXPECT_EQ(w1.counterRate("ops")->delta, 50u);
  EXPECT_EQ(w1.cumulative.counter("ops"), 150u);
  ASSERT_NE(w1.histogramWindow("lat"), nullptr);
  // The window delta sees only this window's two observations...
  EXPECT_EQ(w1.histogramWindow("lat")->count, 2u);
  // ...and its quantiles are computed on the delta, not the cumulative.
  EXPECT_GT(w1.histogramWindow("lat")->p50, 1.0);
}

TEST(TelemetrySampler, RingBufferIsBoundedButSeqIsNot) {
  obs::Registry reg;
  obs::TelemetrySamplerOptions opts;
  opts.ringCapacity = 4;
  obs::TelemetrySampler sampler(reg, opts);
  for (int i = 0; i < 10; ++i) sampler.sampleNow();
  EXPECT_EQ(sampler.windows().size(), 4u);
  EXPECT_EQ(sampler.windowCount(), 10u);
  EXPECT_EQ(sampler.latest().seq, 9u);
  EXPECT_EQ(sampler.windows().front().seq, 6u);
}

TEST(TelemetrySampler, BackgroundThreadTicksAndStopJoins) {
  obs::Registry reg;
  obs::TelemetrySamplerOptions opts;
  opts.intervalMs = 5;
  obs::TelemetrySampler sampler(reg, opts);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.windowCount() < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.windowCount(), 3u);
  // Gauges exported back into the registry prove sampler liveness.
  EXPECT_GT(reg.snapshot().gauge("obs.telemetry.window_seq"), 0.0);
}

TEST(TelemetrySampler, OnWindowCallbackSeesEveryTick) {
  obs::Registry reg;
  obs::TelemetrySampler sampler(reg, {});
  std::vector<std::uint64_t> seqs;
  sampler.onWindow(
      [&seqs](const obs::TelemetryWindow& w) { seqs.push_back(w.seq); });
  sampler.sampleNow();
  sampler.sampleNow();
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 0u);
  EXPECT_EQ(seqs[1], 1u);
}

// ---------------------------------------------------------------------------
// SloEvaluator

/// Handcrafted sampler window with full control over timing — what the
/// evaluator tests feed so trailing-window logic is deterministic.
obs::TelemetryWindow makeWindow(std::uint64_t seq, double atMs, double dtMs) {
  obs::TelemetryWindow w;
  w.seq = seq;
  w.atMs = atMs;
  w.dtMs = dtMs;
  return w;
}

void addHistogramWindow(obs::TelemetryWindow* w, const std::string& name,
                        const obs::HistogramOptions& opts,
                        const std::vector<std::uint64_t>& counts) {
  obs::TelemetryWindow::HistogramWindow hw;
  hw.name = name;
  hw.delta.name = name;
  hw.delta.options = opts;
  hw.delta.counts = counts;
  for (const auto c : counts) hw.delta.count += c;
  hw.count = hw.delta.count;
  w->histogramWindows.push_back(std::move(hw));
}

TEST(SloEvaluator, ParsesTheDocumentedSchema) {
  std::vector<obs::SloRule> rules;
  std::string error;
  const std::string json = R"({"rules": [
    {"name": "lookup-p99", "metric": "serve.load.lookup_ms",
     "objective": "quantile", "quantile": 0.99, "threshold": 5.0,
     "window_s": 5, "burn_rate": 2.0},
    {"name": "reject-rate", "metric": "serve.jobs.rejected",
     "objective": "rate", "threshold": 10},
    {"name": "depth", "metric": "serve.queue.depth",
     "objective": "gauge", "threshold": 100}
  ]})";
  ASSERT_TRUE(obs::SloEvaluator::parseRules(json, &rules, &error)) << error;
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].objective, obs::SloObjective::kQuantile);
  EXPECT_DOUBLE_EQ(rules[0].quantile, 0.99);
  EXPECT_DOUBLE_EQ(rules[0].burnRate, 2.0);
  EXPECT_EQ(rules[1].objective, obs::SloObjective::kRate);
  EXPECT_DOUBLE_EQ(rules[1].windowS, 5.0);  // default
  EXPECT_DOUBLE_EQ(rules[1].burnRate, 1.0);  // default
  EXPECT_EQ(rules[2].objective, obs::SloObjective::kGauge);
}

TEST(SloEvaluator, RejectsMalformedRules) {
  std::vector<obs::SloRule> rules;
  std::string error;
  const auto rejects = [&](const std::string& json) {
    const bool ok = obs::SloEvaluator::parseRules(json, &rules, &error);
    EXPECT_FALSE(ok) << json;
    EXPECT_FALSE(error.empty());
  };
  rejects("{\"rules\": [");                                   // bad JSON
  rejects("[]");                                              // not an object
  rejects("{}");                                              // no rules
  rejects(R"({"rules": [{"metric": "m", "threshold": 1}]})");  // no name
  rejects(R"({"rules": [{"name": "a", "threshold": 1}]})");    // no metric
  rejects(
      R"({"rules": [{"name": "a", "metric": "m", "threshold": 1,
                     "objective": "median"}]})");  // unknown objective
  rejects(
      R"({"rules": [{"name": "a", "metric": "m", "threshold": 0}]})");
  rejects(
      R"({"rules": [{"name": "a", "metric": "m", "threshold": 1},
                    {"name": "a", "metric": "m", "threshold": 1}]})");
  // A syntax error names its byte offset.
  rejects(R"({"rules": [{"name": "a",}]})");
  EXPECT_NE(error.find("invalid JSON at byte 24"), std::string::npos)
      << error;
}

TEST(SloEvaluator, DecodesUnicodeEscapesInRuleNames) {
  std::vector<obs::SloRule> rules;
  std::string error;
  ASSERT_TRUE(obs::SloEvaluator::parseRules(
      R"({"rules": [{"name": "lookup\u002dp99", "metric": "m",
                     "threshold": 1}]})",
      &rules, &error))
      << error;
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].name, "lookup-p99");
}

TEST(SloEvaluator, QuantileRuleBreachesEdgeTriggeredAndRecovers) {
  obs::Registry reg;
  const obs::HistogramOptions opts{1.0, 2.0, 8};
  obs::SloRule rule;
  rule.name = "p50-lat";
  rule.metric = "lat";
  rule.objective = obs::SloObjective::kQuantile;
  rule.quantile = 0.5;
  rule.threshold = 4.0;
  rule.windowS = 0.05;  // 50 ms trailing window
  rule.burnRate = 1.0;
  obs::SloEvaluator slo(reg, {rule});

  // Window 0: all mass in the first bucket (values ~1-2) — healthy.
  auto w0 = makeWindow(0, 100.0, 100.0);
  addHistogramWindow(&w0, "lat", opts, {10, 0, 0, 0, 0, 0, 0, 0});
  slo.observe(w0);
  EXPECT_FALSE(slo.status()[0].breached);
  EXPECT_TRUE(slo.status()[0].measurable);
  EXPECT_TRUE(slo.breaches().empty());

  // Window 1: mass jumps to bucket 4 (16-32) — p50 way over 4.0.
  auto w1 = makeWindow(1, 200.0, 100.0);
  addHistogramWindow(&w1, "lat", opts, {0, 0, 0, 0, 20, 0, 0, 0});
  slo.observe(w1);
  EXPECT_TRUE(slo.status()[0].breached);
  ASSERT_EQ(slo.breaches().size(), 1u);
  EXPECT_EQ(slo.breaches()[0].rule, "p50-lat");
  EXPECT_EQ(slo.breaches()[0].windowSeq, 1u);

  // Window 2, still breached: edge-triggered events do not repeat.
  auto w2 = makeWindow(2, 300.0, 100.0);
  addHistogramWindow(&w2, "lat", opts, {0, 0, 0, 0, 20, 0, 0, 0});
  slo.observe(w2);
  EXPECT_EQ(slo.breaches().size(), 1u);

  // Window 3: healthy again (old windows aged out of the 50 ms trail).
  auto w3 = makeWindow(3, 400.0, 100.0);
  addHistogramWindow(&w3, "lat", opts, {10, 0, 0, 0, 0, 0, 0, 0});
  slo.observe(w3);
  EXPECT_FALSE(slo.status()[0].breached);
  EXPECT_TRUE(slo.anyBreached());  // sticky for --fail-on-slo

  // Exported instruments reflect the latest evaluation.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauge("slo.p50-lat.breached"), 0.0);
  EXPECT_DOUBLE_EQ(snap.gauge("slo.p50-lat.limit"), 4.0);
  EXPECT_EQ(snap.counter("slo.breach_windows"), 2u);
}

TEST(SloEvaluator, RateAndGaugeObjectivesAndBurnRate) {
  obs::Registry reg;
  obs::SloRule rate;
  rate.name = "err-rate";
  rate.metric = "errors";
  rate.objective = obs::SloObjective::kRate;
  rate.threshold = 10.0;  // events/s
  rate.burnRate = 2.0;    // alert only past 20/s
  rate.windowS = 1.0;
  obs::SloRule gauge;
  gauge.name = "depth";
  gauge.metric = "queue.depth";
  gauge.objective = obs::SloObjective::kGauge;
  gauge.threshold = 8.0;
  gauge.windowS = 1.0;
  obs::SloEvaluator slo(reg, {rate, gauge});

  auto w0 = makeWindow(0, 500.0, 500.0);
  w0.counterRates.push_back({"errors", 6, 12.0});  // 12/s < 20/s limit
  w0.cumulative.gauges.push_back({"queue.depth", 5.0});
  slo.observe(w0);
  EXPECT_FALSE(slo.status()[0].breached);  // burn-rate multiplier protects
  EXPECT_DOUBLE_EQ(slo.status()[0].limit, 20.0);
  EXPECT_FALSE(slo.status()[1].breached);

  auto w1 = makeWindow(1, 1000.0, 500.0);
  w1.counterRates.push_back({"errors", 15, 30.0});
  w1.cumulative.gauges.push_back({"queue.depth", 9.0});
  slo.observe(w1);
  // Rate over the trailing 1 s window: (6 + 15) / 1.0 s = 21/s > 20/s.
  EXPECT_TRUE(slo.status()[0].breached);
  EXPECT_NEAR(slo.status()[0].value, 21.0, 1e-9);
  EXPECT_TRUE(slo.status()[1].breached);  // gauge uses the latest value
}

TEST(SloEvaluator, UnknownMetricIsUnmeasurableNotBreached) {
  obs::Registry reg;
  obs::SloRule rule;
  rule.name = "ghost";
  rule.metric = "does.not.exist";
  rule.threshold = 1.0;
  obs::SloEvaluator slo(reg, {rule});
  slo.observe(makeWindow(0, 100.0, 100.0));
  EXPECT_FALSE(slo.status()[0].measurable);
  EXPECT_FALSE(slo.status()[0].breached);
  EXPECT_FALSE(slo.anyBreached());
}

// ---------------------------------------------------------------------------
// Prometheus exposition + scrape server

TEST(Exposition, NameSanitization) {
  EXPECT_EQ(obs::prometheusName("serve.load.lookup_ms"),
            "uniq_serve_load_lookup_ms");
  EXPECT_EQ(obs::prometheusName("weird name-with/chars"),
            "uniq_weird_name_with_chars");
  EXPECT_EQ(obs::prometheusName("0starts.with.digit"),
            "uniq_0starts_with_digit");  // uniq_ prefix keeps it legal
}

TEST(Exposition, EmptyRegistryProducesEmptyDocument) {
  obs::Registry reg;
  EXPECT_EQ(obs::prometheusText(reg.snapshot()), "");
}

TEST(Exposition, HistogramBucketsAreCumulativeAndConsistent) {
  obs::Registry reg;
  auto& h = reg.histogram("lat.ms", obs::HistogramOptions{1.0, 2.0, 3});
  h.observe(0.5);   // underflow
  h.observe(1.5);   // bucket 0
  h.observe(3.0);   // bucket 1
  h.observe(100.0); // overflow
  const std::string text = obs::prometheusText(reg.snapshot());
  // Underflow folds into the first bucket; +Inf equals _count.
  EXPECT_NE(text.find("uniq_lat_ms_bucket{le=\"2\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("uniq_lat_ms_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("uniq_lat_ms_bucket{le=\"8\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("uniq_lat_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("uniq_lat_ms_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE uniq_lat_ms histogram\n"), std::string::npos);
}

TEST(Exposition, ZeroCountHistogramAndCounterSuffix) {
  obs::Registry reg;
  reg.histogram("empty", obs::HistogramOptions{1.0, 2.0, 2});
  reg.counter("ops").inc(7);
  const std::string text = obs::prometheusText(reg.snapshot());
  EXPECT_NE(text.find("uniq_empty_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("uniq_empty_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("uniq_ops_total 7\n"), std::string::npos);
}

TEST(Exposition, WindowAndSloSectionsRender) {
  obs::Registry reg;
  reg.counter("ops").inc(10);
  reg.histogram("lat", obs::HistogramOptions{1.0, 2.0, 4}).observe(3.0);
  obs::TelemetrySampler sampler(reg, {});
  const auto window = sampler.sampleNow();

  obs::SloRule rule;
  rule.name = "my \"rule\"";  // label value needs escaping
  rule.metric = "lat";
  rule.threshold = 1.0;
  std::vector<obs::SloStatus> status(1);
  status[0].rule = rule;
  status[0].value = 2.0;
  status[0].limit = 1.0;
  status[0].measurable = true;
  status[0].breached = true;

  const std::string text =
      obs::prometheusText(reg.snapshot(), &window, &status);
  EXPECT_NE(text.find("uniq_ops_rate "), std::string::npos);
  EXPECT_NE(text.find("uniq_lat_window_q{q=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("uniq_slo_breached{rule=\"my \\\"rule\\\"\"} 1"),
            std::string::npos)
      << text;
}

TEST(Exposition, MonitorViewPrintsDashForAnEmptyWindow) {
  obs::Registry reg;
  const obs::HistogramOptions opts{1.0, 2.0, 8};
  reg.histogram("idle_ms", opts).observe(4.0);
  reg.histogram("busy_ms", opts).observe(4.0);
  obs::TelemetrySampler sampler(reg, {});
  sampler.sampleNow();
  // Only busy_ms sees an observation in the second window.
  reg.histogram("busy_ms", opts).observe(6.0);
  const auto window = sampler.sampleNow();

  const std::string text = obs::prometheusText(reg.snapshot(), &window);
  EXPECT_NE(text.find("uniq_idle_ms_window_observations 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("uniq_busy_ms_window_observations 1\n"),
            std::string::npos)
      << text;
  const std::string view = obs::monitorView(text);
  EXPECT_NE(view.find("  uniq_idle_ms -\n"), std::string::npos) << view;
  EXPECT_EQ(view.find("  uniq_idle_ms 0 / 0 / 0"), std::string::npos) << view;
  EXPECT_NE(view.find("  uniq_busy_ms "), std::string::npos) << view;
  EXPECT_EQ(view.find("  uniq_busy_ms -\n"), std::string::npos) << view;
}

TEST(ScrapeServer, ServesExpositionOverLocalhostHttp) {
  obs::Registry reg;
  reg.counter("hits").inc(3);
  const std::uint64_t requestsBefore =
      obs::registry().snapshot().counter("obs.scrape.requests");
  obs::ScrapeServer server(
      [&reg] { return obs::prometheusText(reg.snapshot()); }, 0);
  ASSERT_NE(server.port(), 0);  // ephemeral port resolved

  std::string body, error;
  ASSERT_TRUE(obs::httpGet(server.port(), "/metrics", &body, &error))
      << error;
  EXPECT_NE(body.find("uniq_hits_total 3"), std::string::npos) << body;

  // Second fetch exercises the accept loop again.
  ASSERT_TRUE(obs::httpGet(server.port(), "/metrics", &body, &error));
  EXPECT_GE(obs::registry().snapshot().counter("obs.scrape.requests"),
            requestsBefore + 2);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(obs::httpGet(server.port(), "/metrics", &body, &error));
}

// ---------------------------------------------------------------------------
// Trace-context propagation

TEST(TraceContext, PoolSubmitCarriesTheSubmittersContext) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  common::ThreadPool pool(2);
  const obs::TraceId id = obs::newTraceId();
  std::atomic<bool> done{false};
  {
    obs::TraceContextScope scope(id);
    pool.submit([&done] {
      UNIQ_SPAN("ctx.task");
      done.store(true);
    });
  }
  while (!done.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  // The span completed on a worker thread, yet carries the submitter's id.
  const auto spans = obs::collectSpans();
  bool found = false;
  for (const auto& s : spans) {
    if (s.name == "ctx.task") {
      EXPECT_EQ(s.traceId, id);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(obs::currentTraceId(), 0u);  // scope restored
}

TEST(TraceContext, ScopesNestAndRestore) {
  const obs::TraceId a = obs::newTraceId();
  const obs::TraceId b = obs::newTraceId();
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::currentTraceId(), 0u);
  {
    obs::TraceContextScope outer(a);
    EXPECT_EQ(obs::currentTraceId(), a);
    {
      obs::TraceContextScope inner(b);
      EXPECT_EQ(obs::currentTraceId(), b);
    }
    EXPECT_EQ(obs::currentTraceId(), a);
  }
  EXPECT_EQ(obs::currentTraceId(), 0u);
}

// The acceptance pin: concurrent service jobs each get a distinct trace id,
// and the "serve.job" spans recorded on whichever pool worker ran them
// attribute to the right job — with the Chrome-trace export grouping by it.
TEST(TraceContext, ConcurrentServeJobsAttributeWorkerSpans) {
  obs::setTraceEnabled(true);
  obs::clearTrace();

  const auto subject = head::makePopulation(1, 4242)[0];
  const sim::MeasurementSession session;
  auto gesture = sim::defaultGesture();
  gesture.stops = 6;
  const auto capture = std::make_shared<const sim::CalibrationCapture>(
      session.run(subject, gesture));

  serve::CalibrationServiceOptions opts;
  opts.workers = 3;
  std::vector<serve::JobResult> results;
  {
    serve::CalibrationService service(opts);
    for (int i = 0; i < 3; ++i)
      service.submit("user" + std::to_string(i), capture);
    results = service.drain();
  }
  ASSERT_EQ(results.size(), 3u);
  std::vector<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_NE(r.traceId, 0u);
    ids.push_back(r.traceId);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "trace ids must be distinct per job";

  const auto spans = obs::collectSpans();
  for (const auto& r : results) {
    bool foundJobSpan = false;
    for (const auto& s : spans) {
      if (s.name == "serve.job" && s.traceId == r.traceId)
        foundJobSpan = true;
    }
    EXPECT_TRUE(foundJobSpan)
        << "no serve.job span attributed to job " << r.id;
  }

  // Chrome-trace export groups by trace id: pid = traceId, with a
  // process_name metadata row per job.
  const std::string json = obs::traceEventJson(spans);
  EXPECT_TRUE(obs::parseJson(json).has_value());
  for (const auto& r : results) {
    EXPECT_NE(json.find("\"pid\":" + std::to_string(r.traceId)),
              std::string::npos);
    EXPECT_NE(json.find("trace " + std::to_string(r.traceId)),
              std::string::npos);
  }
}

// Satellite pin: the per-thread span cap drops (and counts) spans instead
// of growing without bound.
TEST(TraceContext, SpanCapDropsAndCountsOverflow) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  const std::size_t oldCap = obs::traceMaxSpansPerThread();
  const std::uint64_t droppedBefore =
      obs::registry().snapshot().counter("obs.trace.dropped");
  obs::setTraceMaxSpansPerThread(4);
  for (int i = 0; i < 10; ++i) {
    UNIQ_SPAN("cap.test");
  }
  std::size_t mine = 0;
  for (const auto& s : obs::collectSpans())
    if (s.name == "cap.test") ++mine;
  EXPECT_EQ(mine, 4u);
  EXPECT_EQ(obs::registry().snapshot().counter("obs.trace.dropped"),
            droppedBefore + 6);
  obs::setTraceMaxSpansPerThread(oldCap);
  obs::clearTrace();
}

// ---------------------------------------------------------------------------
// Export edge cases (satellite: JSON/exposition robustness under races)

TEST(ExportEdgeCases, MetricsJsonOnEmptyRegistryIsValid) {
  obs::Registry reg;
  const std::string json = obs::metricsJson(reg.snapshot());
  std::string error;
  EXPECT_TRUE(obs::parseJson(json, &error).has_value()) << error;
  EXPECT_EQ(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(ExportEdgeCases, MetricNamesNeedingEscapingStayValidJson) {
  obs::Registry reg;
  reg.counter("weird\"name\\with\ncontrol\tchars").inc();
  reg.gauge("gauge\"quoted\"").set(1.5);
  const std::string json = obs::metricsJson(reg.snapshot());
  std::string error;
  const auto parsed = obs::parseJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << json;
  // The escaped names decode back to the registry's names.
  ASSERT_NE(parsed->find("counters"), nullptr);
  EXPECT_NE(parsed->find("counters")->find("weird\"name\\with\ncontrol\tchars"),
            nullptr);
  ASSERT_NE(parsed->find("gauges"), nullptr);
  EXPECT_NE(parsed->find("gauges")->find("gauge\"quoted\""), nullptr);
  // And the exposition sanitizer neutralizes the same names.
  const std::string text = obs::prometheusText(reg.snapshot());
  for (const char c : std::string("\"\n\t\\"))
    EXPECT_EQ(text.find(std::string("uniq_weird") + c), std::string::npos);
}

TEST(ExportEdgeCases, ResetAllRacingObserveIsSafe) {
  obs::Registry reg;
  auto& hist = reg.histogram("race", obs::HistogramOptions{0.1, 2.0, 16});
  auto& ctr = reg.counter("race.ops");
  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    Pcg32 rng(1, 1);
    while (!stop.load(std::memory_order_relaxed)) {
      hist.observe(std::exp(rng.gaussian()));
      ctr.inc();
    }
  });
  for (int i = 0; i < 200; ++i) {
    reg.resetAll();
    const auto snap = reg.snapshot();
    // Quantile on a snapshot taken mid-race must not crash or return junk
    // outside the layout's range.
    ASSERT_EQ(snap.histograms.size(), 1u);
    const double q = snap.histograms[0].quantile(0.99);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 0.1 * std::pow(2.0, 16));
  }
  stop.store(true);
  hammer.join();
}

}  // namespace
}  // namespace uniq
