#include "serve/table_cache.h"

#include <functional>
#include <map>
#include <utility>

#include "common/error.h"
#include "core/near_far.h"
#include "core/table_io.h"
#include "head/hrtf_database.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniq::serve {

namespace {

obs::Counter& hitsCounter() {
  static obs::Counter& c = obs::registry().counter("serve.cache.hits");
  return c;
}
obs::Counter& missesCounter() {
  static obs::Counter& c = obs::registry().counter("serve.cache.misses");
  return c;
}
obs::Counter& diskHitsCounter() {
  static obs::Counter& c = obs::registry().counter("serve.cache.disk_hits");
  return c;
}
obs::Counter& evictionsCounter() {
  static obs::Counter& c = obs::registry().counter("serve.cache.evictions");
  return c;
}
obs::Counter& fallbacksCounter() {
  static obs::Counter& c = obs::registry().counter("serve.cache.fallbacks");
  return c;
}
obs::Gauge& sizeGauge() {
  static obs::Gauge& g = obs::registry().gauge("serve.cache.size");
  return g;
}

/// Flatten a user id into something safe as a single path component; ids
/// are caller-chosen strings, not trusted filenames.
std::string sanitizeForFilename(const std::string& userId) {
  std::string out = userId.empty() ? std::string("_") : userId;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

bool isPowerOfTwo(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

const char* cacheTierName(CacheTier tier) {
  switch (tier) {
    case CacheTier::kMemory:
      return "memory";
    case CacheTier::kDisk:
      return "disk";
    case CacheTier::kFallback:
      return "fallback";
    case CacheTier::kMiss:
      return "miss";
  }
  return "unknown";
}

TableCache::TableCache(Options opts) : opts_(std::move(opts)) {
  UNIQ_REQUIRE(opts_.capacity >= 1, "cache capacity must be >= 1");
  UNIQ_REQUIRE(isPowerOfTwo(opts_.shards),
               "cache shard count must be a power of two");
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::size_t TableCache::shardFor(const std::string& userId) const {
  // Power-of-two shard count makes the modulo a mask; std::hash spreads
  // sequential user ids well enough that shards stay balanced.
  return std::hash<std::string>{}(userId) & (shards_.size() - 1);
}

std::string TableCache::tablePath(const std::string& userId) const {
  return opts_.persistDir + "/" + sanitizeForFilename(userId) + ".uniqq";
}

std::shared_ptr<const core::HrtfTable> TableCache::get(
    const std::string& userId, CacheTier* tier) {
  Shard& shard = *shards_[shardFor(userId)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(userId);
    if (it != shard.map.end()) {
      ++shard.stats.hits;
      hitsCounter().inc();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
      if (tier) *tier = CacheTier::kMemory;
      return it->second.table;
    }
    ++shard.stats.misses;
    missesCounter().inc();
  }
  if (tier) *tier = CacheTier::kMiss;
  if (opts_.persistDir.empty()) return nullptr;

  // Cold miss with persistence configured: probe disk outside the lock (a
  // load takes milliseconds; concurrent hits must not wait on it). Two
  // threads may race to load the same file — both succeed, the second
  // insert wins, and the table contents are identical.
  UNIQ_SPAN("serve.cache.disk_load");
  auto loaded = core::tryLoadHrtfTable(tablePath(userId));
  if (!loaded) return nullptr;
  auto table =
      std::make_shared<const core::HrtfTable>(std::move(*loaded));
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.stats.diskHits;
  diskHitsCounter().inc();
  insertLocked(shard, userId, table);
  if (tier) *tier = CacheTier::kDisk;
  return table;
}

std::shared_ptr<const core::HrtfTable> TableCache::getOrFallback(
    const std::string& userId, double sampleRate, CacheTier* tier) {
  if (auto table = get(userId, tier)) return table;
  Shard& shard = *shards_[shardFor(userId)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stats.fallbacks;
  }
  fallbacksCounter().inc();
  if (tier) *tier = CacheTier::kFallback;
  return populationAverageTable(sampleRate);
}

void TableCache::put(const std::string& userId,
                     std::shared_ptr<const core::HrtfTable> table) {
  UNIQ_REQUIRE(table != nullptr, "cannot cache a null table");
  Shard& shard = *shards_[shardFor(userId)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    insertLocked(shard, userId, table);
  }
  if (!opts_.persistDir.empty()) {
    UNIQ_SPAN("serve.cache.persist");
    core::saveHrtfTableQuantized(tablePath(userId), *table);
  }
}

void TableCache::insertLocked(Shard& shard, const std::string& userId,
                              std::shared_ptr<const core::HrtfTable> table) {
  const auto it = shard.map.find(userId);
  if (it != shard.map.end()) {
    it->second.table = std::move(table);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
  } else {
    shard.lru.push_front(userId);
    shard.map[userId] = Entry{std::move(table), shard.lru.begin()};
    totalEntries_.fetch_add(1, std::memory_order_relaxed);
    // Shared budget, shard-local eviction: evict from this shard's cold end
    // while the whole cache is over capacity. Concurrent inserts in other
    // shards may each evict one of their own entries; the total can dip a
    // little under budget but never stays over it.
    while (totalEntries_.load(std::memory_order_relaxed) > opts_.capacity &&
           !shard.lru.empty()) {
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
      totalEntries_.fetch_sub(1, std::memory_order_relaxed);
      ++shard.stats.evictions;
      evictionsCounter().inc();
    }
  }
  sizeGauge().set(
      static_cast<double>(totalEntries_.load(std::memory_order_relaxed)));
}

bool TableCache::contains(const std::string& userId) const {
  const Shard& shard = *shards_[shardFor(userId)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.map.count(userId) > 0;
}

std::size_t TableCache::size() const {
  return totalEntries_.load(std::memory_order_relaxed);
}

TableCache::Stats TableCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.diskHits += shard->stats.diskHits;
    total.evictions += shard->stats.evictions;
    total.fallbacks += shard->stats.fallbacks;
  }
  return total;
}

std::shared_ptr<const core::HrtfTable> TableCache::populationAverageTable(
    double sampleRate) {
  // One generic table per distinct sample rate, built on first request and
  // shared process-wide — the same construction the pipeline's kFailed
  // fallback uses, so "cache fallback" and "calibration fallback" sound
  // identical to the listener.
  static std::mutex mutex;
  static std::map<double, std::shared_ptr<const core::HrtfTable>> byRate;
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = byRate[sampleRate];
  if (!slot) {
    UNIQ_SPAN("serve.cache.build_fallback");
    head::HrtfDatabaseOptions dbOpts;
    if (sampleRate > 8000.0) dbOpts.sampleRate = sampleRate;
    const head::HrtfDatabase db(head::globalTemplateSubject(), dbOpts);
    auto nearTable = core::nearTableFromDatabase(db, dbOpts.referenceDistance);
    auto farTable = core::farTableFromDatabase(db);
    slot = std::make_shared<const core::HrtfTable>(std::move(nearTable),
                                                   std::move(farTable));
  }
  return slot;
}

}  // namespace uniq::serve
