// Router: the front of the sharded serving tier.
//
// Keywords are consistent-hashed across N shard processes (rendezvous /
// highest-random-weight hashing, so adding or removing a shard remaps
// only that shard's keywords). A query runs Algorithm 2's greedy where
// the RR blocks live: the router opens one cover session on each shard
// that owns a query keyword (shard_server.h), carrying that shard's
// keywords and the budgets the router computed from the fleet's
// IndexMeta. Every RR set belongs to exactly one keyword, so a vertex's
// marginal coverage is the sum of the shards' per-keyword counts: the
// router sums the sparse initial counts each session returns and runs
// the library's one CELF loop (coverage/celf_core.h) over them. Covering
// a selected vertex sends one step to every session before receiving any
// reply and subtracts the sparse decrements each shard returns after
// marking the vertex's sets covered. Counts, tie-breaks, seeds, gains and
// estimates are therefore those of RrIndex::Query on one process
// (index/rr_greedy.h shares the per-keyword halves), BYTE-IDENTICAL for
// any shard count. The router ends every session before it answers, so
// no shard holds a session or pins a block between queries.
//
// Failure model (each mechanism maps to a RouterStats counter):
//
//   * Per-shard failure domains: one circuit breaker per shard
//     (serving/failure_domain.h keyed by shard index), consulted BEFORE
//     every session is assigned. A shard that ate `failure_threshold`
//     consecutive transport failures is open: its keywords shed in O(1)
//     (breaker_sheds) instead of waiting out a connect timeout, and
//     half-open probes re-admit it after backoff — one probe cycle after
//     a killed shard restarts, the router is whole again.
//   * Per-attempt deadlines: every session open carries
//     attempt_timeout_ms as its wire deadline (the shard sheds expired
//     work at dequeue) and every frame is bounded client-side by
//     connect/io timeouts — a dead shard costs one bounded attempt, never
//     a hang.
//   * Hedged retry: when a session cannot be opened (transport failure or
//     the shard's refusal) or the shard drops a keyword, the keyword moves
//     to its next admitted replica (hedged_rpcs counts the opens that
//     carry such a keyword). A session lost mid-greedy — a transport
//     error, a step reply that fails validation (a vertex past the index
//     or a decrement above the current count) or "no session" — counts as
//     a transport failure against the shard's breaker and moves its
//     keywords the same way. The greedy then restarts from scratch on the
//     new assignment (greedy_restarts). replication_factor replicas bound
//     the moves; r=1 means no hedge target exists and the keyword degrades
//     immediately.
//   * Culprit-diff degradation: keywords that no replica could serve are
//     dropped, the budget is recomputed over the survivors
//     (budget_recomputes) and the greedy runs on them, so the answer comes
//     back degraded=true + dropped_keywords (degraded_answers,
//     keywords_dropped) — equal to RrIndex::Query on the reduced query.
//     All keywords lost => kUnavailable. Every restart uses up a replica
//     or drops a keyword, so a query always ends: never a hang, never a
//     silently-wrong full answer.
//
// The router runs every session of a query from the calling thread.
#ifndef KBTIM_NET_ROUTER_H_
#define KBTIM_NET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "coverage/celf_core.h"
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

  /// Wire deadline of each session open (request_deadline_ms on the
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

  uint64_t scatter_rpcs = 0;       ///< Session opens (incl. hedges).
  uint64_t hedged_rpcs = 0;        ///< Opens carrying a moved keyword.
  uint64_t cover_steps = 0;        ///< Step frames sent to sessions.
  uint64_t greedy_restarts = 0;    ///< Greedies redone after a failure.
  uint64_t response_bytes = 0;     ///< Reply frame bytes received.
  uint64_t transport_failures = 0; ///< RPCs lost to transport errors.
  uint64_t breaker_sheds = 0;      ///< Keyword assignments shed, breaker open.
  uint64_t keywords_dropped = 0;   ///< Keywords degraded out of answers.
  uint64_t budget_recomputes = 0;  ///< Budgets recomputed after drops.

  /// Per-shard breaker roll-up (FailureDomainTable::stats()).
  uint64_t breaker_opens = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_closes = 0;
  uint64_t breaker_rejections = 0;
};

/// Query front over a shard fleet. Thread-safe.
class Router {
 public:
  /// Fetches IndexMeta from the first reachable shard (all shards serve
  /// the same directory; meta equality across them is the deployment's
  /// contract, spot-enforced by tests).
  static StatusOr<std::unique_ptr<Router>> Create(
      std::vector<ShardAddress> shards, RouterOptions options = {});

  /// Routed solve; see the file comment for failure semantics.
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
  /// One keyword's replica state across the attempts of a query.
  struct Keyword {
    std::vector<uint32_t> replicas;  ///< Rendezvous order.
    uint32_t next_replica = 0;       ///< Replicas used up (failed or shed).
  };

  /// One attempt's cover session on one shard.
  struct Session {
    uint32_t shard = 0;
    RrFetchRequest request;          ///< The keywords this shard covers.
    std::vector<Keyword*> keywords;  ///< Aligned with request.topics.
    bool hedge = false;  ///< Carries a keyword past its first replica.
    std::unique_ptr<ShardClient> client;
    uint64_t received_before = 0;  ///< client->received_bytes() at checkout.
    bool open = false;             ///< The shard holds the session.
  };

  Router(std::vector<ShardAddress> shards, RouterOptions options,
         IndexMeta meta);

  /// Opens every session, all sends before any receive, summing the
  /// shards' initial counts into `count`. False when a session failed or
  /// a shard dropped a keyword (those keywords have moved on a replica).
  bool OpenSessions(std::vector<Session>& sessions,
                    std::vector<uint32_t>& count) EXCLUDES(stats_mu_);

  /// Runs the CELF loop over `count`, each cover a step on every session.
  /// False when a session was lost (the result is then meaningless).
  bool RunGreedy(std::vector<Session>& sessions, uint32_t k,
                 std::vector<uint32_t>& count, MaxCoverResult* cover)
      EXCLUDES(stats_mu_);

  /// Ends every open session and returns each client to the pool.
  void EndSessions(std::vector<Session>& sessions) EXCLUDES(stats_mu_);

  /// A session's shard failed in transport: closes its connection (the
  /// shard ends the session), feeds its breaker, and, unless
  /// `keep_keywords`, moves its keywords to their next replica.
  void LoseSession(Session& session, bool keep_keywords = false)
      EXCLUDES(stats_mu_);

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
