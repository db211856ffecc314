// Tests for the observability layer (src/obs): trace spans, the metrics
// registry, the exporters, and the pipeline RunReport integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "head/subject.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/measurement_session.h"
#include "test_util.h"

namespace uniq {
namespace {

const obs::SpanRecord* findSpan(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name) {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

TEST(ObsTrace, RecordsNestingParentAndDepth) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  {
    UNIQ_SPAN("outer");
    {
      UNIQ_SPAN("middle");
      { UNIQ_SPAN("inner"); }
    }
    { UNIQ_SPAN("sibling"); }
  }
  const auto spans = obs::collectSpans();
  ASSERT_EQ(spans.size(), 4u);

  const auto* outer = findSpan(spans, "outer");
  const auto* middle = findSpan(spans, "middle");
  const auto* inner = findSpan(spans, "inner");
  const auto* sibling = findSpan(spans, "sibling");
  ASSERT_TRUE(outer && middle && inner && sibling);

  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(middle->parent, outer->id);
  EXPECT_EQ(middle->depth, 1u);
  EXPECT_EQ(inner->parent, middle->id);
  EXPECT_EQ(inner->depth, 2u);
  EXPECT_EQ(sibling->parent, outer->id);
  EXPECT_EQ(sibling->depth, 1u);

  // Children are contained in the parent's interval, with tolerance for
  // clock granularity.
  EXPECT_GE(middle->startUs + 1e-3, outer->startUs);
  EXPECT_LE(middle->startUs + middle->durUs,
            outer->startUs + outer->durUs + 1e-3);
  // collectSpans() sorts by start time.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LE(spans[i - 1].startUs, spans[i].startUs);
}

TEST(ObsTrace, RuntimeDisableRecordsNothing) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  obs::setTraceEnabled(false);
  { UNIQ_SPAN("invisible"); }
  EXPECT_TRUE(obs::collectSpans().empty());
  obs::setTraceEnabled(true);
  { UNIQ_SPAN("visible"); }
  EXPECT_EQ(obs::collectSpans().size(), 1u);
}

TEST(ObsTrace, SpansFromPoolThreadsCarryTheirOwnTid) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  common::ThreadPool pool(2);
  pool.parallelFor(0, 8, [](std::size_t) { UNIQ_SPAN("task"); });
  const auto spans = obs::collectSpans();
  ASSERT_EQ(spans.size(), 8u);
  for (const auto& s : spans) {
    EXPECT_EQ(s.name, "task");
    // Pool-thread spans are roots of their own threads.
    EXPECT_EQ(s.parent, 0u);
    EXPECT_EQ(s.depth, 0u);
  }
}

TEST(ObsMetrics, HistogramBinningEdges) {
  // Buckets: [1,2) [2,4) [4,8) [8,16), plus underflow (<1) and
  // overflow (>=16).
  obs::Histogram h(obs::HistogramOptions{1.0, 2.0, 4});
  ASSERT_EQ(h.edges().size(), 5u);
  EXPECT_DOUBLE_EQ(h.edges().front(), 1.0);
  EXPECT_DOUBLE_EQ(h.edges().back(), 16.0);

  h.observe(0.999);  // underflow
  h.observe(0.0);    // underflow (below lo)
  h.observe(-3.0);   // underflow
  h.observe(1.0);    // exactly lower edge of bucket 0
  h.observe(1.999);  // still bucket 0
  h.observe(2.0);    // edge value lands in the bucket that starts there
  h.observe(15.999); // last finite bucket
  h.observe(16.0);   // overflow edge
  h.observe(1e9);    // overflow
  h.observe(std::nan(""));  // NaN counts as underflow, never throws

  EXPECT_EQ(h.underflow(), 4u);
  EXPECT_EQ(h.binCount(0), 2u);
  EXPECT_EQ(h.binCount(1), 1u);
  EXPECT_EQ(h.binCount(2), 0u);
  EXPECT_EQ(h.binCount(3), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 10u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.binCount(0), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(ObsMetrics, ConcurrentCounterIncrementsFromPool) {
  obs::Counter counter;
  obs::Histogram hist(obs::HistogramOptions{1.0, 2.0, 8});
  common::ThreadPool pool(4);
  constexpr std::size_t kIters = 20000;
  pool.parallelFor(0, kIters, [&](std::size_t i) {
    counter.inc();
    hist.observe(static_cast<double>(i % 100));
  });
  EXPECT_EQ(counter.value(), kIters);
  EXPECT_EQ(hist.count(), kIters);
  std::uint64_t total = hist.underflow() + hist.overflow();
  for (std::size_t k = 0; k + 1 < hist.edges().size(); ++k)
    total += hist.binCount(k);
  EXPECT_EQ(total, kIters);
}

TEST(ObsMetrics, GaugeSetMaxIsAHighWaterMark) {
  obs::Gauge g;
  g.setMax(3.0);
  g.setMax(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.setMax(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(ObsMetrics, RegistryFindsOrCreatesAndSnapshots) {
  obs::Registry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  EXPECT_EQ(&reg.counter("a.count"), &reg.counter("a.count"));
  reg.gauge("g").set(4.5);
  reg.histogram("h", obs::HistogramOptions{1.0, 2.0, 4}).observe(3.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Snapshot entries are sorted by name.
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[1].name, "b.count");
  EXPECT_EQ(snap.counter("b.count"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 4.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  reg.resetAll();
  const auto zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counter("b.count"), 0u);
  EXPECT_DOUBLE_EQ(zeroed.gauge("g"), 0.0);
  EXPECT_EQ(zeroed.histograms[0].count, 0u);
}

TEST(ObsExport, TraceAndMetricsJsonAreWellFormed) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  {
    UNIQ_SPAN("json.outer");
    UNIQ_SPAN("json \"quoted\" \\ name\nnewline");
  }
  const auto traceJson = obs::traceEventJson(obs::collectSpans());
  std::string error;
  EXPECT_TRUE(obs::parseJson(traceJson, &error).has_value()) << error;
  EXPECT_NE(traceJson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(traceJson.find("json.outer"), std::string::npos);

  obs::Registry reg;
  reg.counter("weird \"name\"\t").inc();
  reg.gauge("inf.gauge").set(std::numeric_limits<double>::infinity());
  reg.histogram("h", obs::HistogramOptions{0.5, 4.0, 3}).observe(2.0);
  const auto metricsJson = obs::metricsJson(reg.snapshot());
  EXPECT_TRUE(obs::parseJson(metricsJson, &error).has_value()) << error;
  EXPECT_NE(metricsJson.find("\"counters\""), std::string::npos);
  EXPECT_NE(metricsJson.find("\"histograms\""), std::string::npos);

  // Empty inputs still serialize to valid documents.
  EXPECT_TRUE(obs::parseJson(obs::traceEventJson({}), &error).has_value())
      << error;
  EXPECT_TRUE(
      obs::parseJson(obs::metricsJson(obs::MetricsSnapshot{}), &error)
          .has_value())
      << error;
}

TEST(ObsJson, RejectsMalformedJson) {
  const auto rejects = [](const std::string& text) {
    std::string error;
    EXPECT_FALSE(obs::parseJson(text, &error).has_value()) << text;
    EXPECT_EQ(error.rfind("invalid JSON at byte ", 0), 0u) << error;
  };
  rejects("");
  rejects("{");
  rejects("{\"a\":1,}");
  rejects("[1 2]");
  rejects("{\"a\":01}");
  rejects("\"unterminated");
  rejects("nul");
  rejects("[1] trailing");
  rejects("\"\\x\"");
  rejects("\"tab\there\"");
  rejects("[.5]");
  rejects("[1.]");
  rejects("[1e]");
  rejects("\"\\u12G4\"");
  std::string error;
  EXPECT_TRUE(
      obs::parseJson("[1,2,{\"k\":null},true,-1.5e3]", &error).has_value())
      << error;
  EXPECT_FALSE(obs::parseJson("[1] x", &error).has_value());
  EXPECT_EQ(error, "invalid JSON at byte 4: trailing characters after "
                   "top-level value");
}

TEST(ObsJson, BuildsTheValueTree) {
  std::string error;
  const auto v = obs::parseJson(
      " {\"a\": [1, -0, 1e-3, 2.5E+2, \"s\"], \"b\": {\"c\": true, \"d\": "
      "false, \"e\": null}, \"a\": 7}\n",
      &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_EQ(v->type, obs::JsonValue::Type::kObject);
  ASSERT_EQ(v->members.size(), 3u);
  // Document order is kept, and find() returns the first duplicate.
  EXPECT_EQ(v->members[2].first, "a");
  const auto* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->type, obs::JsonValue::Type::kArray);
  ASSERT_EQ(a->items.size(), 5u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].type, obs::JsonValue::Type::kNumber);
  EXPECT_EQ(a->items[1].number, 0.0);
  EXPECT_TRUE(std::signbit(a->items[1].number));
  EXPECT_EQ(a->items[2].number, 1e-3);
  EXPECT_EQ(a->items[3].number, 250.0);
  EXPECT_EQ(a->items[4].type, obs::JsonValue::Type::kString);
  EXPECT_EQ(a->items[4].str, "s");
  const auto* b = v->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->find("c")->type, obs::JsonValue::Type::kBool);
  EXPECT_TRUE(b->find("c")->boolean);
  EXPECT_FALSE(b->find("d")->boolean);
  EXPECT_EQ(b->find("e")->type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(b->find("missing"), nullptr);
  EXPECT_EQ(a->find("a"), nullptr);  // find() on a non-object
}

TEST(ObsJson, NestingLimitIs64Values) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  std::string error;
  EXPECT_TRUE(obs::parseJson(nested(64), &error).has_value()) << error;
  EXPECT_FALSE(obs::parseJson(nested(65), &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // A scalar inside 64 arrays is the 65th value.
  const std::string scalarAt65 =
      std::string(64, '[') + "1" + std::string(64, ']');
  EXPECT_FALSE(obs::parseJson(scalarAt65).has_value());
}

TEST(ObsJson, DecodesEveryEscape) {
  std::string error;
  const auto v = obs::parseJson(
      R"("q\" b\\ s\/ \b\f\n\r\t A\u0041 e\u00e9 euro\u20ac clef\ud834\udd1e")",
      &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->str,
            "q\" b\\ s/ \b\f\n\r\t AA e\xC3\xA9 euro\xE2\x82\xAC "
            "clef\xF0\x9D\x84\x9E");
  // \u0000 decodes to a NUL byte inside the string.
  const auto nul = obs::parseJson(R"("a\u0000b")");
  ASSERT_TRUE(nul.has_value());
  EXPECT_EQ(nul->str, std::string("a\0b", 3));
  // Lone surrogates are rejected: a high one without its low half, a high
  // one followed by a non-surrogate, and a low one on its own.
  for (const char* lone :
       {R"("\ud834")", R"("\ud834x")", R"("\ud834\u0041")", R"("\udd1e")"}) {
    EXPECT_FALSE(obs::parseJson(lone, &error).has_value()) << lone;
    EXPECT_NE(error.find("lone surrogate"), std::string::npos) << error;
  }
}

TEST(ObsJson, EscapeRoundTripsEveryAsciiByte) {
  for (int c = 0x01; c <= 0x7f; ++c) {
    const std::string s = std::string("<") + static_cast<char>(c) + ">";
    std::string error;
    const auto v = obs::parseJson('"' + obs::jsonEscape(s) + '"', &error);
    ASSERT_TRUE(v.has_value()) << "byte " << c << ": " << error;
    EXPECT_EQ(v->str, s) << "byte " << c;
  }
}

TEST(ObsReport, StageTimerWithoutAReportStillCountsTheHistogram) {
  const std::uint64_t before = test::stageHistogram("bare").count;
  {
    obs::StageTimer timer(nullptr, "bare");
    EXPECT_EQ(timer.stage(), nullptr);
    timer.stop();
    timer.stop();  // a second stop records nothing
  }  // nor does the destructor after stop()
  EXPECT_EQ(test::stageHistogram("bare").count, before + 1);
}

TEST(ObsReport, StageTimerStraddlingClearTraceKeepsItsTime) {
  obs::RunReport report;
  {
    obs::StageTimer timer(&report, "straddle");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    obs::clearTrace();  // restarts the trace epoch, not the stage clock
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(report.find("straddle"), nullptr);
  EXPECT_GE(report.find("straddle")->wallMs, 25.0);
}

TEST(ObsTrace, SpanStraddlingClearTraceKeepsItsDuration) {
  {
    UNIQ_SPAN("test.straddle");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    obs::clearTrace();  // restarts the trace epoch, not the span's clock
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto spans = obs::collectSpans();
  const auto isStraddle = [](const obs::SpanRecord& s) {
    return s.name == "test.straddle";
  };
  const auto it = std::find_if(spans.begin(), spans.end(), isStraddle);
  ASSERT_NE(it, spans.end());
  EXPECT_GE(it->durUs, 25000.0);
  // It began before the epoch clearTrace() set.
  EXPECT_LT(it->startUs, 0.0);
}

TEST(ObsReport, SummaryTableListsStagesInOrder) {
  obs::RunReport report;
  report.stage("alpha").wallMs = 1.25;
  report.stage("alpha").set("k", 3.0);
  report.stage("beta").wallMs = 0.5;
  EXPECT_EQ(report.stageNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  const auto table = report.summaryTable();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("k=3"), std::string::npos);
  EXPECT_LT(table.find("alpha"), table.find("beta"));
  EXPECT_EQ(report.find("gamma"), nullptr);
}

TEST(ObsReport, SummarizeMetricsFiltersByPrefix) {
  obs::Registry reg;
  reg.counter("fft.plan.hits").inc(3);
  reg.counter("other.count").inc(9);
  reg.gauge("pool.threads").set(2.0);
  const auto all = obs::summarizeMetrics(reg.snapshot());
  EXPECT_NE(all.find("other.count"), std::string::npos);
  const auto filtered =
      obs::summarizeMetrics(reg.snapshot(), {"fft.", "pool."});
  EXPECT_NE(filtered.find("fft.plan.hits 3"), std::string::npos);
  EXPECT_NE(filtered.find("pool.threads 2"), std::string::npos);
  EXPECT_EQ(filtered.find("other.count"), std::string::npos);
}

// End-to-end: a small calibrate run reports every pipeline stage, and the
// trace contains the stage spans the docs promise.
TEST(ObsReport, SeverityNamesAreLowercaseLabels) {
  EXPECT_STREQ(obs::severityName(obs::Severity::kInfo), "info");
  EXPECT_STREQ(obs::severityName(obs::Severity::kWarning), "warning");
  EXPECT_STREQ(obs::severityName(obs::Severity::kError), "error");
}

TEST(ObsReport, DiagnosticsWorstSeverityAndText) {
  obs::RunReport report;
  EXPECT_EQ(report.worstSeverity(), obs::Severity::kInfo);
  EXPECT_TRUE(report.diagnosticsText().empty());

  report.diagnose("fusion", obs::Severity::kInfo, "rejected 1 outlier stop",
                  {30});
  EXPECT_EQ(report.worstSeverity(), obs::Severity::kInfo);
  report.diagnose("extract", obs::Severity::kWarning, "2 stops clipped",
                  {3, 7});
  EXPECT_EQ(report.worstSeverity(), obs::Severity::kWarning);
  report.diagnose("pipeline", obs::Severity::kError, "stage failed");
  EXPECT_EQ(report.worstSeverity(), obs::Severity::kError);

  const auto text = report.diagnosticsText();
  EXPECT_NE(
      text.find("[info] fusion: rejected 1 outlier stop (stops 30)"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("[warning] extract: 2 stops clipped (stops 3, 7)"),
            std::string::npos)
      << text;
  // No "(stops ...)" suffix when a diagnostic names no stops.
  EXPECT_NE(text.find("[error] pipeline: stage failed\n"), std::string::npos)
      << text;
}

TEST(ObsReport, SummaryTableCarriesStatusLine) {
  obs::RunReport report;
  report.stage("fusion").set("stops", 30.0);
  EXPECT_EQ(report.summaryTable().find("status:"), std::string::npos);
  report.status = "degraded";
  EXPECT_NE(report.summaryTable().find("status: degraded"),
            std::string::npos);
}

TEST(ObsPipelineIntegration, CalibrateRunReportsAllStages) {
  obs::setTraceEnabled(true);
  obs::clearTrace();

  const auto subject = head::makePopulation(1, 7)[0];
  sim::GestureProfile gesture = sim::defaultGesture();
  gesture.stops = 10;
  const sim::MeasurementSession session;
  const auto capture = session.run(subject, gesture);

  std::vector<obs::MetricsSnapshot::HistogramEntry> before;
  for (const auto& stage : test::pipelineStages())
    before.push_back(test::stageHistogram(stage));

  const core::CalibrationPipeline pipeline;
  obs::RunReport report;
  const auto personal = pipeline.run(capture, &report);

  EXPECT_EQ(report.stageNames(), test::pipelineStages());
  for (const auto& stage : report.stages) EXPECT_GE(stage.wallMs, 0.0);

  // Each stage's timer fed its histogram once, with the reported time.
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    const auto after = test::stageHistogram(report.stages[i].name);
    EXPECT_EQ(after.count, before[i].count + 1) << report.stages[i].name;
    EXPECT_NEAR(after.sum - before[i].sum, report.stages[i].wallMs, 1e-9)
        << report.stages[i].name;
  }

  const auto* extract = report.find("extract");
  ASSERT_NE(extract, nullptr);
  EXPECT_DOUBLE_EQ(extract->value("stops"), 10.0);
  EXPECT_GE(extract->value("tapsDetected"), 6.0);

  const auto* fusion = report.find("fusion");
  ASSERT_NE(fusion, nullptr);
  EXPECT_GE(fusion->value("iterations"), 1.0);
  EXPECT_GE(fusion->value("restarts"), 1.0);
  EXPECT_TRUE(fusion->has("objectiveDeg2"));
  EXPECT_GE(fusion->value("residualRmsDeg"), 0.0);

  const auto* nearfield = report.find("nearfield");
  ASSERT_NE(nearfield, nullptr);
  EXPECT_GE(nearfield->value("usableStops"), 4.0);
  EXPECT_GT(nearfield->value("medianRadiusM"), 0.0);
  EXPECT_GE(nearfield->value("tapAlignRmsUs"), 0.0);

  const auto* nearfar = report.find("nearfar");
  ASSERT_NE(nearfar, nullptr);
  EXPECT_DOUBLE_EQ(nearfar->value("entries"), 181.0);

  // Instrumented result must equal the plain run (same capture, same
  // deterministic pipeline).
  const auto plain = pipeline.run(capture);
  EXPECT_EQ(plain.fusion.iterations, personal.fusion.iterations);
  EXPECT_DOUBLE_EQ(plain.headParams.a, personal.headParams.a);
  // Without a report the histograms still count the run.
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(test::stageHistogram(test::pipelineStages()[i]).count,
              before[i].count + 2);

  const auto spans = obs::collectSpans();
  for (const char* name :
       {"pipeline.run", "pipeline.extract_channels", "dsf.solve_robust",
        "dsf.restart", "nearfield.build", "nearfar.convert"}) {
    EXPECT_NE(findSpan(spans, name), nullptr) << "missing span: " << name;
  }
  // The first run's stage spans bracket its reported stage times: a span
  // opens just before its timer starts and closes just after it stops.
  for (const auto& stage : report.stages) {
    const auto* span = findSpan(spans, "pipeline.stage." + stage.name);
    ASSERT_NE(span, nullptr) << stage.name;
    EXPECT_GE(span->durUs / 1000.0 + 1e-3, stage.wallMs) << stage.name;
  }
  const auto* run = findSpan(spans, "pipeline.run");
  const auto* solve = findSpan(spans, "dsf.solve_robust");
  ASSERT_TRUE(run && solve);
  EXPECT_GT(run->durUs, 0.0);

  // The span set exports as valid Chrome trace JSON.
  std::string error;
  EXPECT_TRUE(obs::parseJson(obs::traceEventJson(spans), &error).has_value())
      << error;
}

}  // namespace
}  // namespace uniq
