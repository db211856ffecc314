#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/json.h"

namespace uniq::obs {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Merge `delta` into `into` (same layout assumed; mismatches skipped so a
/// reconfigured histogram cannot corrupt the merge).
void mergeDelta(MetricsSnapshot::HistogramEntry* into,
                const MetricsSnapshot::HistogramEntry& delta) {
  if (into->counts.empty()) {
    *into = delta;
    return;
  }
  if (into->counts.size() != delta.counts.size()) return;
  for (std::size_t k = 0; k < delta.counts.size(); ++k)
    into->counts[k] += delta.counts[k];
  into->underflow += delta.underflow;
  into->overflow += delta.overflow;
  into->count += delta.count;
  into->sum += delta.sum;
}

}  // namespace

SloEvaluator::SloEvaluator(Registry& reg, std::vector<SloRule> rules)
    : reg_(reg), rules_(std::move(rules)) {
  for (const auto& rule : rules_)
    maxWindowS_ = std::max(maxWindowS_, rule.windowS);
  status_.resize(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) status_[i].rule = rules_[i];
}

bool SloEvaluator::parseRules(const std::string& json,
                              std::vector<SloRule>* rules,
                              std::string* error) {
  rules->clear();
  std::string syntaxError;
  const auto root = parseJson(json, &syntaxError);
  if (!root) return fail(error, "slo rules: " + syntaxError);
  if (root->type != JsonValue::Type::kObject)
    return fail(error, "slo rules: top level must be a JSON object");
  const JsonValue* list = root->find("rules");
  if (list == nullptr || list->type != JsonValue::Type::kArray)
    return fail(error, "slo rules: missing \"rules\" array");
  for (std::size_t i = 0; i < list->items.size(); ++i) {
    const JsonValue& item = list->items[i];
    const std::string where = "slo rule #" + std::to_string(i);
    if (item.type != JsonValue::Type::kObject)
      return fail(error, where + ": must be an object");
    SloRule rule;
    const auto str = [&](const char* key, std::string* out) {
      const JsonValue* v = item.find(key);
      if (v == nullptr) return true;
      if (v->type != JsonValue::Type::kString) return false;
      *out = v->str;
      return true;
    };
    const auto num = [&](const char* key, double* out) {
      const JsonValue* v = item.find(key);
      if (v == nullptr) return true;
      if (v->type != JsonValue::Type::kNumber) return false;
      *out = v->number;
      return true;
    };
    std::string objective = "quantile";
    if (!str("name", &rule.name))
      return fail(error, where + ": \"name\" must be a string");
    if (!str("metric", &rule.metric))
      return fail(error, where + ": \"metric\" must be a string");
    if (!str("objective", &objective))
      return fail(error, where + ": \"objective\" must be a string");
    if (!num("quantile", &rule.quantile))
      return fail(error, where + ": \"quantile\" must be a number");
    if (!num("threshold", &rule.threshold))
      return fail(error, where + ": \"threshold\" must be a number");
    if (!num("window_s", &rule.windowS))
      return fail(error, where + ": \"window_s\" must be a number");
    if (!num("burn_rate", &rule.burnRate))
      return fail(error, where + ": \"burn_rate\" must be a number");
    if (rule.name.empty())
      return fail(error, where + ": \"name\" is required");
    if (rule.metric.empty())
      return fail(error, where + ": \"metric\" is required");
    if (objective == "quantile") {
      rule.objective = SloObjective::kQuantile;
    } else if (objective == "rate") {
      rule.objective = SloObjective::kRate;
    } else if (objective == "gauge") {
      rule.objective = SloObjective::kGauge;
    } else {
      return fail(error, where + ": unknown objective \"" + objective + "\"");
    }
    if (!(rule.quantile >= 0.0 && rule.quantile <= 1.0))
      return fail(error, where + ": quantile must be in [0, 1]");
    if (!(rule.threshold > 0.0))
      return fail(error, where + ": threshold must be positive");
    if (!(rule.windowS > 0.0))
      return fail(error, where + ": window_s must be positive");
    if (!(rule.burnRate > 0.0))
      return fail(error, where + ": burn_rate must be positive");
    for (const auto& existing : *rules)
      if (existing.name == rule.name)
        return fail(error, where + ": duplicate rule name \"" + rule.name +
                               "\"");
    rules->push_back(std::move(rule));
  }
  return true;
}

double SloEvaluator::evaluateRule(const SloRule& rule,
                                  bool* measurable) const {
  // Caller holds mutex_; history_ is newest-last.
  *measurable = false;
  if (history_.empty()) return 0.0;
  const TelemetryWindow& latest = history_.back();
  const double cutoffMs = latest.atMs - rule.windowS * 1000.0;

  switch (rule.objective) {
    case SloObjective::kGauge: {
      for (const auto& g : latest.cumulative.gauges) {
        if (g.name == rule.metric) {
          *measurable = true;
          return g.value;
        }
      }
      return 0.0;
    }
    case SloObjective::kRate: {
      double delta = 0.0;
      double dtMs = 0.0;
      bool seen = false;
      for (const auto& w : history_) {
        if (w.atMs <= cutoffMs && &w != &latest) continue;
        const auto* r = w.counterRate(rule.metric);
        if (r == nullptr) continue;
        seen = true;
        delta += static_cast<double>(r->delta);
        dtMs += w.dtMs;
      }
      if (!seen || dtMs <= 0.0) return 0.0;
      *measurable = true;
      return delta / (dtMs / 1000.0);
    }
    case SloObjective::kQuantile: {
      MetricsSnapshot::HistogramEntry merged;
      for (const auto& w : history_) {
        if (w.atMs <= cutoffMs && &w != &latest) continue;
        const auto* h = w.histogramWindow(rule.metric);
        if (h == nullptr) continue;
        mergeDelta(&merged, h->delta);
      }
      if (merged.count == 0) return 0.0;
      *measurable = true;
      return merged.quantile(rule.quantile);
    }
  }
  return 0.0;
}

void SloEvaluator::observe(const TelemetryWindow& window) {
  std::vector<SloStatus> statuses;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    history_.push_back(window);
    // Retain just enough trailing history to cover the widest rule window
    // (always keep the latest so every rule sees at least one window).
    const double cutoffMs = window.atMs - maxWindowS_ * 1000.0;
    while (history_.size() > 1 && history_.front().atMs < cutoffMs)
      history_.pop_front();

    for (std::size_t i = 0; i < rules_.size(); ++i) {
      const SloRule& rule = rules_[i];
      SloStatus& st = status_[i];
      const bool wasBreached = st.breached;
      st.limit = rule.threshold * rule.burnRate;
      st.value = evaluateRule(rule, &st.measurable);
      st.breached = st.measurable && st.value > st.limit;
      if (st.breached && !wasBreached) {
        SloBreach breach;
        breach.rule = rule.name;
        breach.value = st.value;
        breach.limit = st.limit;
        breach.atMs = window.atMs;
        breach.windowSeq = window.seq;
        breaches_.push_back(std::move(breach));
      }
      if (st.breached) everBreached_ = true;
    }
    statuses = status_;
  }

  std::uint64_t breachedWindows = 0;
  for (const auto& st : statuses) {
    const std::string base = "slo." + st.rule.name;
    reg_.gauge(base + ".value").set(st.measurable ? st.value : 0.0);
    reg_.gauge(base + ".limit").set(st.limit);
    reg_.gauge(base + ".breached").set(st.breached ? 1.0 : 0.0);
    if (st.breached) ++breachedWindows;
  }
  if (breachedWindows > 0) reg_.counter("slo.breach_windows").inc();
}

std::vector<SloStatus> SloEvaluator::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

std::vector<SloBreach> SloEvaluator::breaches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breaches_;
}

bool SloEvaluator::anyBreached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return everBreached_;
}

}  // namespace uniq::obs
