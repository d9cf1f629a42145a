// Router: the scatter-gather front of the sharded serving tier.
//
// Keywords are consistent-hashed across N shard processes (rendezvous /
// highest-random-weight hashing, so adding or removing a shard remaps
// only that shard's keywords). A multi-keyword query fans out one
// RR-block fetch per involved shard, gathers the per-keyword blocks, and
// runs the SAME greedy the RR index runs in-process (index/rr_greedy.h)
// over the gathered blocks — which is why a healthy fleet returns answers
// BYTE-IDENTICAL to RrIndex::Query on one process, for any shard count
// (the router computes query budgets itself from the shards' IndexMeta;
// blocks are loaded at exactly those budgets; the greedy is shared code).
//
// Failure model (each mechanism maps to a RouterStats counter):
//
//   * Per-shard failure domains: one circuit breaker per shard
//     (serving/failure_domain.h keyed by shard index), consulted BEFORE
//     every fan-out. A shard that ate `failure_threshold` consecutive
//     transport failures is open: requests shed in O(1)
//     (breaker_sheds) instead of waiting out a connect timeout, and
//     half-open probes re-admit it after backoff — one probe cycle after
//     a killed shard restarts, the router is whole again.
//   * Per-attempt deadlines: every fetch RPC carries attempt_timeout_ms
//     as its wire deadline (the shard sheds expired work at dequeue) and
//     is bounded client-side by connect/io timeouts — a dead shard costs
//     one bounded attempt, never a hang.
//   * Hedged retry: when a fetch fails in transport (transport_failures,
//     breaker RecordFailure), each affected keyword is re-fetched once
//     from its next admitted replica (hedged_rpcs). replication_factor
//     replicas bound the rounds; r=1 means no hedge target exists and the
//     keyword degrades immediately.
//   * Culprit-diff degradation: keywords that no replica could serve are
//     dropped, the budget is recomputed over the survivors (refetching
//     any block the new budget outgrew — the set strictly shrinks, so
//     this terminates), and the answer comes back degraded=true +
//     dropped_keywords (degraded_answers, keywords_dropped) — equal to
//     RrIndex::Query on the reduced query. All keywords lost =>
//     kUnavailable. Never a hang, never a silently-wrong full answer.
#ifndef KBTIM_NET_ROUTER_H_
#define KBTIM_NET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "index/index_format.h"
#include "net/shard_client.h"
#include "sampling/solver_result.h"
#include "serving/failure_domain.h"
#include "topics/query.h"

namespace kbtim {
namespace net {

/// One shard endpoint.
struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterOptions {
  /// Replicas per keyword (rendezvous top-r shards). 1 = no hedge target:
  /// an unreachable owner degrades the keyword. >= 2 enables the hedged
  /// retry. Clamped to the fleet size.
  uint32_t replication_factor = 1;

  /// Wire deadline of each fetch attempt (request_deadline_ms on the
  /// RPC); also the shard-side queue budget for the attempt.
  double attempt_timeout_ms = 2000.0;

  /// Per-shard circuit breakers (keyed by shard index).
  FailureDomainOptions breaker;

  /// Transport timeouts / reconnect budget of the per-shard clients.
  ShardClientOptions client;
};

/// Router observability; every failure-model mechanism has a counter.
struct RouterStats {
  uint64_t queries = 0;
  uint64_t full_answers = 0;      ///< OK, no keyword dropped.
  uint64_t degraded_answers = 0;  ///< OK with dropped_keywords.
  uint64_t failed_queries = 0;    ///< Non-OK to the caller.

  uint64_t scatter_rpcs = 0;       ///< Fetch RPCs issued (incl. hedges).
  uint64_t hedged_rpcs = 0;        ///< Re-fetch rounds after a failure.
  uint64_t transport_failures = 0; ///< RPCs lost to transport errors.
  uint64_t breaker_sheds = 0;      ///< Keyword-fetches skipped, breaker open.
  uint64_t keywords_dropped = 0;   ///< Keywords degraded out of answers.
  uint64_t refetch_rounds = 0;     ///< Budget-recompute refetch passes.

  /// Per-shard breaker roll-up (FailureDomainTable::stats()).
  uint64_t breaker_opens = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_closes = 0;
  uint64_t breaker_rejections = 0;
};

/// Scatter-gather query front over a shard fleet. Thread-safe.
class Router {
 public:
  /// Fetches IndexMeta from the first reachable shard (all shards serve
  /// the same directory; meta equality across them is the deployment's
  /// contract, spot-enforced by tests).
  static StatusOr<std::unique_ptr<Router>> Create(
      std::vector<ShardAddress> shards, RouterOptions options = {});

  /// Scatter-gather solve; see the file comment for failure semantics.
  StatusOr<SeedSetResult> Query(const kbtim::Query& query) EXCLUDES(mu_);

  RouterStats stats() const EXCLUDES(stats_mu_);

  const IndexMeta& meta() const { return meta_; }
  size_t num_shards() const { return shards_.size(); }

  /// Rendezvous replica list of `topic`, best score first, size
  /// replication_factor — exposed so tests can aim faults at the owner.
  std::vector<uint32_t> ReplicasOf(TopicId topic) const;

  /// Current breaker state of one shard (tests: assert open after a
  /// kill, closed after recovery).
  BreakerState ShardState(uint32_t shard) const;

 private:
  /// One keyword's gather state across fetch rounds.
  struct TopicFetch {
    TopicId topic = 0;
    uint64_t budget = 0;
    std::shared_ptr<const RrKeywordBlock> block;  // null until gathered
    std::vector<uint32_t> replicas;               // rendezvous order
    uint32_t next_replica = 0;  ///< Replicas consumed (tried or shed).
  };

  Router(std::vector<ShardAddress> shards, RouterOptions options,
         IndexMeta meta);

  /// Runs fetch rounds over `work` until every entry has a block or has
  /// exhausted its admitted replicas. Entries left blockless are the
  /// dropped keywords.
  void GatherBlocks(std::vector<TopicFetch>& work);

  /// Pooled client checkout (clients are single-conversation; concurrent
  /// queries each borrow their own). A pooled client keeps its connection
  /// and its buffers' capacity from one query to the next.
  std::unique_ptr<ShardClient> AcquireClient(uint32_t shard) EXCLUDES(mu_);
  void ReleaseClient(uint32_t shard, std::unique_ptr<ShardClient> client)
      EXCLUDES(mu_);

  const std::vector<ShardAddress> shards_;
  const RouterOptions options_;
  const IndexMeta meta_;

  /// Per-shard failure domains (TopicId == shard index).
  FailureDomainTable breakers_;

  mutable Mutex mu_;
  /// Idle connection pool per shard.
  std::vector<std::vector<std::unique_ptr<ShardClient>>> idle_clients_
      GUARDED_BY(mu_);

  mutable Mutex stats_mu_;
  RouterStats counters_ GUARDED_BY(stats_mu_);
};

}  // namespace net
}  // namespace kbtim

#endif  // KBTIM_NET_ROUTER_H_
