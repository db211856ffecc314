#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hrtf_table.h"

namespace uniq::serve {

/// Which tier answered a TableCache lookup (see class comment for the tier
/// ladder). Exposed so load drivers and tests can attribute every lookup
/// without diffing global counters across threads.
enum class CacheTier {
  kMemory,    ///< served from the in-memory LRU
  kDisk,      ///< rescued from the persist dir (promoted into memory)
  kFallback,  ///< answered with the shared population-average table
  kMiss,      ///< nowhere (get() only; getOrFallback never returns this)
};

/// Stable lower-case name ("memory", ..., "miss").
const char* cacheTierName(CacheTier tier);

struct TableCacheOptions {
  /// Total in-memory entry budget, shared across every shard (>= 1). The
  /// cache never holds more than `capacity` tables no matter how lookups
  /// distribute over shards.
  std::size_t capacity = 32;
  /// When non-empty, must be an existing writable directory; put() then
  /// mirrors every table to disk and cold get()s probe it.
  std::string persistDir;
  /// Power-of-two shard count. Each shard has its own mutex, LRU list, and
  /// map; a lookup locks only its user's shard, so a hot cache stops
  /// serializing on one global mutex. 1 reproduces the pre-sharding cache
  /// exactly (single lock, single LRU — bitwise the same behavior).
  std::size_t shards = 1;
};

/// Thread-safe sharded LRU cache of personalized HrtfTables keyed by user
/// id — the serving layer's answer to "millions of users, a few hot at a
/// time". Three tiers back a lookup:
///
///   1. memory — the per-shard LRU maps (hit),
///   2. disk   — `<persistDir>/<user>.uniqq`, the compact quantized
///               container (~4x smaller, see core::saveHrtfTableQuantized
///               and docs/CAPACITY.md) written by put() and probed on a
///               cold miss (disk hit; the table is promoted into memory),
///   3. model  — the population-average template (fallback; shared across
///               users and never counted as that user's table).
///
/// Users hash onto 2^k shards; each shard is an independent mutex + LRU,
/// and the capacity budget is shared through one atomic entry count, so
/// the whole cache stays bounded while eviction stays shard-local.
///
/// Tables are handed out as shared_ptr<const HrtfTable>, so an eviction
/// never invalidates a table a concurrent AoA batch is still matching
/// against. Counters land in the process registry under "serve.cache.*".
class TableCache {
 public:
  using Options = TableCacheOptions;

  /// Point-in-time counter values (also exported as metrics), aggregated
  /// over every shard.
  struct Stats {
    std::uint64_t hits = 0;       ///< served from memory
    std::uint64_t misses = 0;     ///< not in memory (disk may still hit)
    std::uint64_t diskHits = 0;   ///< misses rescued by the persist dir
    std::uint64_t evictions = 0;  ///< LRU entries dropped over capacity
    std::uint64_t fallbacks = 0;  ///< lookups answered population-average
  };

  explicit TableCache(Options opts);

  /// The user's table from memory or disk, or nullptr when neither has it.
  /// When `tier` is non-null it reports which tier answered (kMiss on
  /// nullptr).
  std::shared_ptr<const core::HrtfTable> get(const std::string& userId,
                                             CacheTier* tier = nullptr);

  /// get(), falling back to the population-average table at `sampleRate`
  /// when the user has no personalized table anywhere. Never returns null:
  /// an uncalibrated user gets the generic spatializer, same contract as
  /// the pipeline's kFailed fallback.
  std::shared_ptr<const core::HrtfTable> getOrFallback(
      const std::string& userId, double sampleRate = 48000.0,
      CacheTier* tier = nullptr);

  /// Insert or replace the user's table (and persist it when configured),
  /// evicting least-recently-used entries beyond the shared capacity
  /// budget.
  void put(const std::string& userId,
           std::shared_ptr<const core::HrtfTable> table);

  /// Whether the user is currently in memory. Does not touch recency and
  /// does not probe disk (tests use this to observe eviction order).
  bool contains(const std::string& userId) const;

  std::size_t size() const;
  std::size_t capacity() const { return opts_.capacity; }
  std::size_t shardCount() const { return shards_.size(); }
  const std::string& persistDir() const { return opts_.persistDir; }
  Stats stats() const;

  /// The shared population-average table at `sampleRate` (built once per
  /// distinct rate, process-wide). Public so tests and the CLI can compare
  /// against exactly what a fallback lookup returns.
  static std::shared_ptr<const core::HrtfTable> populationAverageTable(
      double sampleRate);

 private:
  struct Entry {
    std::shared_ptr<const core::HrtfTable> table;
    std::list<std::string>::iterator pos;
  };
  /// One independent LRU; every member is guarded by `mutex`.
  struct Shard {
    mutable std::mutex mutex;
    /// Recency list, most recent first; map entries point into it.
    std::list<std::string> lru;
    std::unordered_map<std::string, Entry> map;
    Stats stats;
  };

  std::size_t shardFor(const std::string& userId) const;
  /// Move `userId` to the most-recent position of its shard, inserting if
  /// absent; the caller holds the shard mutex. Evicts from the shard's cold
  /// end while the shared budget is exceeded.
  void insertLocked(Shard& shard, const std::string& userId,
                    std::shared_ptr<const core::HrtfTable> table);
  std::string tablePath(const std::string& userId) const;

  const Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Entries across all shards — the shared capacity budget's ledger.
  std::atomic<std::size_t> totalEntries_{0};
};

}  // namespace uniq::serve
