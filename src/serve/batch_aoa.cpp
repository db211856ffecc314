#include "serve/batch_aoa.h"

#include <map>
#include <memory>

#include "common/constants.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace uniq::serve {

BatchAoaEngine::BatchAoaEngine(TableCache& cache) : cache_(cache) {}

std::vector<AoaBatchItem> BatchAoaEngine::run(
    const std::vector<AoaQuery>& queries, std::size_t numThreads) const {
  UNIQ_SPAN("serve.aoa.batch");
  static obs::Counter& batches =
      obs::registry().counter("serve.aoa.batches");
  static obs::Counter& queryCount =
      obs::registry().counter("serve.aoa.queries");
  static obs::Counter& fallbackQueries =
      obs::registry().counter("serve.aoa.fallback_queries");
  batches.inc();
  queryCount.inc(queries.size());

  std::vector<AoaBatchItem> results(queries.size());
  if (queries.empty()) return results;

  // Group query indices by user: one cache lookup and one estimator per
  // user per batch (std::map for a deterministic user order).
  std::map<std::string, std::vector<std::size_t>> byUser;
  for (std::size_t i = 0; i < queries.size(); ++i)
    byUser[queries[i].userId].push_back(i);

  for (const auto& [userId, indices] : byUser) {
    // The flag comes from the lookup that served the table: a second
    // lookup could see a concurrent eviction or put the first did not.
    CacheTier tier = CacheTier::kMiss;
    const auto table = cache_.getOrFallback(userId, kDefaultSampleRate, &tier);
    const bool personalized = tier != CacheTier::kFallback;
    if (!personalized) fallbackQueries.inc(indices.size());
    const core::AoaEstimator estimator(table->farTable());
    common::parallelFor(
        0, indices.size(),
        [&](std::size_t k) {
          const auto& q = queries[indices[k]];
          auto& out = results[indices[k]];
          const double startMs = obs::steadyMs();
          out.estimate =
              q.source.empty()
                  ? estimator.estimateUnknown(q.left, q.right)
                  : estimator.estimateKnown(q.left, q.right, q.source);
          out.personalized = personalized;
          obs::registry()
              .histogram("serve.aoa.query_ms",
                         obs::HistogramOptions{0.1, 2.0, 24})
              .observe(obs::steadyMs() - startMs);
        },
        numThreads);
  }
  return results;
}

}  // namespace uniq::serve
