#pragma once

#include <string>
#include <vector>

#include "core/aoa.h"
#include "serve/table_cache.h"

namespace uniq::serve {

/// One AoA query against a user's cached personalized table. An empty
/// `source` selects the unknown-source path (paper Eq. 10/11); otherwise
/// the known-source objective (Eq. 9) runs against `source`.
struct AoaQuery {
  std::string userId;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<double> source;
};

/// Per-query result, in the same order as the submitted batch.
struct AoaBatchItem {
  core::AoaEstimate estimate;
  /// False when the user had no personalized table anywhere and the
  /// population-average fallback answered — the angle is still usable, but
  /// a consumer ranking users by localization quality should know.
  bool personalized = false;
};

/// Batched AoA evaluation over the serving layer's TableCache: queries are
/// grouped by user so each user's table is fetched once (one cache lookup,
/// one AoaEstimator), queries fan out across the global thread pool, and
/// the estimator's template-magnitude cache plus the process FFT plan cache
/// amortize all transform setup across the batch. Estimates are identical
/// to calling AoaEstimator once per query.
class BatchAoaEngine {
 public:
  /// `cache` must outlive the engine.
  explicit BatchAoaEngine(TableCache& cache);

  /// Run every query; results come back in query order. `numThreads` caps
  /// the query-level fan-out (0 = whole global pool, 1 = serial). Queries
  /// are independent, so results do not depend on the thread count. A
  /// query that throws (e.g. empty recordings) surfaces as InvalidArgument
  /// after the batch drains, matching parallelFor semantics.
  std::vector<AoaBatchItem> run(const std::vector<AoaQuery>& queries,
                                std::size_t numThreads = 0) const;

 private:
  TableCache& cache_;
};

}  // namespace uniq::serve
