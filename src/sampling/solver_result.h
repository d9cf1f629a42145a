// Common result type returned by every KB-TIM solver (WRIS, RIS, RR index,
// IRR index) so that benchmarks and tests can compare them uniformly.
#ifndef KBTIM_SAMPLING_SOLVER_RESULT_H_
#define KBTIM_SAMPLING_SOLVER_RESULT_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "topics/vocabulary.h"

namespace kbtim {

/// Measurements of one Solve/Query call.
struct SolverStats {
  /// RR sets the theoretical bound demanded (θ or θ^Q).
  uint64_t theta = 0;

  /// RR sets actually materialized in memory (== theta for online solvers;
  /// the incrementally loaded count for IRR — Figures 5-7's right columns).
  uint64_t rr_sets_loaded = 0;

  /// Disk read operations performed (Table 6); 0 for online solvers.
  /// For a batch-executed query this is the query's amortized share of the
  /// batch's reads (see batch_size): summing over the batch's results
  /// yields the true total, so aggregators never multiple-count.
  uint64_t io_reads = 0;

  /// Bytes read from disk; 0 for online solvers. Amortized like io_reads.
  uint64_t io_bytes = 0;

  /// Queries that shared this result's physical load (1 for a lone
  /// query; the batch size under RrIndex::BatchQuery). Batch-level I/O
  /// and cache-delta counters are split across the batch's results.
  uint32_t batch_size = 1;

  /// Lower bound on OPT used to size θ (online solvers only).
  double opt_lower_bound = 0.0;

  /// KeywordCache block hits/misses this query (index solvers only; a
  /// fully warm query has misses == 0 and io_reads == 0). Amortized over
  /// the batch like io_reads.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// Decoded bytes resident in the keyword cache after the query.
  uint64_t cache_bytes = 0;

  /// Blocks this query decoded but the cache refused to keep because each
  /// was larger than KeywordCacheOptions::block_cache_bytes.
  uint64_t cache_admission_bypasses = 0;

  /// IRR partition prefetches scheduled on the background pipeline, and
  /// foreground loads served by joining an in-flight prefetch.
  uint64_t prefetches_issued = 0;
  uint64_t prefetches_served = 0;

  /// Order in which a QueryService worker picked the request up: 1 for
  /// the service's first pickup, then increasing. 0 outside a service.
  uint64_t pickup_seq = 0;

  double sampling_seconds = 0.0;
  double greedy_seconds = 0.0;
  double total_seconds = 0.0;
};

/// A solved seed set with its estimated (targeted) influence.
struct SeedSetResult {
  /// Seeds in selection order.
  std::vector<VertexId> seeds;

  /// Estimated marginal influence per seed, in expected-influence units
  /// (coverage fraction × total weight mass), aligned with seeds.
  std::vector<double> marginal_gains;

  /// Estimated total expected influence of the seed set.
  double estimated_influence = 0.0;

  /// Partial-result degradation (QueryService failure domains): true when
  /// one or more query keywords were dropped — quarantined by a circuit
  /// breaker or identified as the culprit of a read/decode failure — and
  /// the seed set was solved over the surviving keywords only. The
  /// influence estimate then covers the degraded query, not the original.
  bool degraded = false;

  /// The keywords dropped when degraded (empty otherwise).
  std::vector<TopicId> dropped_keywords;

  SolverStats stats;
};

}  // namespace kbtim

#endif  // KBTIM_SAMPLING_SOLVER_RESULT_H_
