// Request vocabulary of the serving layer: which engine answers a query,
// which scheduler lane that engine belongs to, and the per-request
// budgets/priority a client attaches. Split out of query_service.h so the
// LaneScheduler can be built and tested without the service itself.
#ifndef KBTIM_SERVING_SERVICE_REQUEST_H_
#define KBTIM_SERVING_SERVICE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/irr_index.h"
#include "index/keyword_cache.h"
#include "topics/query.h"

namespace kbtim {

/// Which solver answers a request.
enum class QueryEngine : uint8_t {
  kIrr = 0,   ///< Incremental RR index (paper §5, the real-time path).
  kRr = 1,    ///< Disk RR index (paper §4).
  kWris = 2,  ///< Online sampling (§3.2; needs an OnlineBackend).
};

/// Scheduler lane of an engine class. Index queries are ~10x cheaper than
/// a WRIS solve, so they ride a separate fast lane that a WRIS backlog can
/// never head-of-line-block.
enum class EngineLane : uint8_t {
  kFast = 0,  ///< kIrr + kRr.
  kSlow = 1,  ///< kWris.
};

inline constexpr size_t kNumLanes = 2;

inline EngineLane LaneOf(QueryEngine engine) {
  return engine == QueryEngine::kWris ? EngineLane::kSlow : EngineLane::kFast;
}

/// Within-lane ordering. Priority never lets one lane preempt the other
/// (cross-lane fairness is the deficit-round-robin's job); it reorders
/// requests INSIDE a lane, higher first, FIFO among equals.
enum class RequestPriority : uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

inline constexpr size_t kNumPriorities = 3;

/// One client request: the query plus its serving budgets.
struct ServiceRequest {
  Query query;
  QueryEngine engine = QueryEngine::kIrr;

  /// Score-refinement mode for QueryEngine::kIrr (ignored otherwise).
  IrrQueryMode irr_mode = IrrQueryMode::kLazy;

  /// Within-lane scheduling priority (see RequestPriority).
  RequestPriority priority = RequestPriority::kNormal;

  /// Queue-wait budget in milliseconds; a request not STARTED within it is
  /// dropped with DeadlineExceeded. 0 uses the service default (whose own
  /// 0 means no deadline).
  double queue_deadline_ms = 0.0;

  /// Per-request θ budget; 0 = unlimited. Index engines reject queries
  /// whose θ^Q exceeds it, WRIS clamps (see query_service.h).
  uint64_t max_theta = 0;

  /// End-to-end deadline in milliseconds, measured from Submit; 0 = none.
  /// Unlike queue_deadline_ms (a queue-WAIT budget), this is the total
  /// budget the CALLER still has — the network router propagates its
  /// remaining per-attempt budget here, and a shard that dequeues an
  /// already-expired request drops it instead of burning a worker slot
  /// computing an answer nobody reads (deadline_expired_at_dequeue).
  double request_deadline_ms = 0.0;
};

/// What a queued PendingRequest asks the worker to do: solve a query, or
/// serve raw per-keyword RR blocks — to a shard's cover session, which
/// runs its share of a routed greedy over them (net/shard_server.h), or
/// to a remote FetchRr. Fetches ride the fast lane with full admission
/// control, deadline-at-dequeue shedding and per-keyword breaker
/// screening, but skip the greedy.
enum class RequestKind : uint8_t {
  kSolve = 0,
  kFetchRr = 1,
};

/// One per-keyword RR block fetch (a cover session's keywords, or a
/// remote FetchRr).
struct RrFetchRequest {
  /// Requested keywords and their minimum RR budgets, aligned.
  std::vector<TopicId> topics;
  std::vector<uint64_t> budgets;

  RequestPriority priority = RequestPriority::kNormal;
  double queue_deadline_ms = 0.0;    ///< As ServiceRequest.
  double request_deadline_ms = 0.0;  ///< As ServiceRequest.
};

/// Fetch outcome. A topic the shard could not serve — breaker-quarantined
/// or failed with kIOError/kCorruption after the cache's own handling —
/// comes back as a null block and a dropped entry instead of failing the
/// whole fetch; the router decides whether to hedge or degrade.
struct RrFetchResult {
  /// Aligned with the request's topics; null = dropped.
  std::vector<std::shared_ptr<const RrKeywordBlock>> blocks;
  std::vector<TopicId> dropped;
};

}  // namespace kbtim

#endif  // KBTIM_SERVING_SERVICE_REQUEST_H_
