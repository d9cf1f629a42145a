// QueryService: the multi-client serving layer over one shared
// KeywordCache.
//
// The paper's premise is ad-hoc advertiser queries answered in real time;
// a platform faces a *stream* of them, from many campaigns at once. PR 3
// made concurrency a first-class execution mode behind one FIFO queue;
// PR 4 replaces that FIFO with an engine-class scheduler, because a WRIS
// solve is ~10x an index query and one slow class must not head-of-line-
// block the cheap one:
//
//   clients ──Submit()──► LaneScheduler ─────────► worker pool
//                │          fast lane kIrr/kRr       │ per-slot state:
//                │          slow lane kWris          │  WrisSolver (own
//                │          3 priorities per lane    │  sampler slots +
//                │          weighted deficit RR      │  CoverageWorkspace)
//                │ (admission control:                │ WRIS reservation:
//                │  queue-full rejects,               │  ≤ max_wris_workers
//                │  queue deadlines)                  │  solves in flight
//                ▼                                    ▼
//           ServiceStats ◄──────── IrrIndex / RrIndex / WrisSolver
//       (per-lane percentiles,             │
//        drops, batch counters,      KeywordCache (ONE per service,
//        cache roll-up)              shared by every worker)
//
// Scheduling (see lane_scheduler.h for the discipline itself):
//   * Lanes + priorities — index queries and WRIS solves queue separately;
//     a per-request RequestPriority reorders within a lane only.
//   * Weighted deficit round robin — with both lanes backlogged, workers
//     split their cost budget fast:slow = fast_lane_weight:slow_lane_weight
//     (WRIS pickups charge wris_cost ≈ the measured 10x).
//   * Worker reservations — at most max_wris_workers WRIS solves run
//     concurrently (auto: num_workers - 1), so the fast lane always has a
//     worker even under a WRIS flood.
//   * Batch-aware RR dispatch — a worker popping a kRr request coalesces
//     up to rr_max_batch - 1 queued kRr requests with overlapping keyword
//     sets into ONE RrIndex::BatchQuery (optionally waiting
//     rr_batch_window_ms for more), then fans the per-query results back
//     out to each caller's future. Results are bit-identical to serial
//     execution; batch-level I/O is amortized across the results so
//     ServiceStats sums stay exact.
//   * SchedulingMode::kFifo restores the PR 3 queue — the bench baseline.
//
// Execution engines per request: the IRR index (Algorithm 4), the RR index
// (Algorithm 2), or online WRIS sampling (§3.2, when an OnlineBackend is
// attached). IRR/RR handles are stateless over the shared cache, so one of
// each serves every worker; WRIS solvers serialize internally, so each
// worker slot owns one (its sampler slots, RR arenas and CoverageWorkspace
// scratch are reused across that slot's queries — concurrent queries never
// allocate a solver or stomp each other's scratch).
//
// Admission control and budgets:
//   * max_pending — Submit() rejects (Unavailable) once this many requests
//     wait; the client sheds load instead of growing an unbounded queue.
//   * queue_deadline_ms — a request still queued past its deadline is
//     dropped (DeadlineExceeded) when a worker reaches it: under overload
//     the service does stale-work shedding instead of serving dead
//     requests late.
//   * max_theta — per-request θ budget. Index queries whose computed θ^Q
//     exceeds it are rejected (FailedPrecondition) before touching disk;
//     WRIS clamps its sample count to the budget (weakening the
//     approximation guarantee exactly like OnlineSolverOptions::max_theta).
//
// Drain vs Pause:
//   * Pause() stops workers from STARTING queued requests; Submit still
//     accepts. Resume() restarts pickup.
//   * Drain() blocks until the queue is empty and no worker is mid-query.
//     Drain DRAINS THROUGH a pause: while any Drain is waiting, workers
//     execute queued requests even on a Pause()d service, then honor the
//     pause again once the drain completes. (Before PR 4 a Drain on a
//     paused, non-empty service deadlocked.) Use Pause+Drain to quiesce
//     into a maintenance window: queued work finishes, new work queues.
//
// Thread safety: every public method may be called from any thread.
// Destruction fails all still-queued requests with Unavailable, then joins
// the workers (in-flight queries finish).
#ifndef KBTIM_SERVING_QUERY_SERVICE_H_
#define KBTIM_SERVING_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "index/index_scrubber.h"
#include "index/irr_index.h"
#include "index/keyword_cache.h"
#include "index/rr_index.h"
#include "propagation/model.h"
#include "sampling/solver_result.h"
#include "sampling/wris_solver.h"
#include "serving/failure_domain.h"
#include "serving/lane_scheduler.h"
#include "serving/service_request.h"
#include "topics/query.h"
#include "topics/tfidf.h"

namespace kbtim {

/// Fault-handling knobs: what the service does when the storage layer
/// fails underneath it (as opposed to overload, which admission control
/// and deadlines own).
struct FailureHandlingOptions {
  /// Per-topic circuit breakers: consecutive kIOError/kCorruption on one
  /// keyword quarantine it (requests answer kUnavailable in O(1), no
  /// disk), with half-open probes re-admitting it after backoff.
  bool enable_failure_domains = true;
  FailureDomainOptions breaker;

  /// Extra attempts for a request that failed with a transient kIOError
  /// (0 disables retrying). kCorruption is never retried: the cache has
  /// already invalidated the topic and re-reading the same bytes cannot
  /// help within one request's latency budget.
  uint32_t io_retries = 2;

  /// Backoff before the first retry, doubled per retry. 0 retries
  /// immediately — the determinism suite runs that way so wall-clock
  /// never enters the transcript.
  double retry_backoff_ms = 5.0;

  /// Multi-keyword degradation: when some keywords are quarantined or
  /// identified as the culprits of a failure, re-solve over the healthy
  /// remainder and return it flagged degraded=true instead of failing the
  /// whole query. Disabled, any sick keyword fails the request.
  bool partial_results = true;
};

/// Serving knobs (see file comment for the admission-control semantics).
struct QueryServiceOptions {
  /// Worker threads executing queries (>= 1).
  uint32_t num_workers = 2;

  /// Bound on queued (not yet started) requests before Submit rejects,
  /// summed across lanes.
  size_t max_pending = 64;

  /// Default ServiceRequest::queue_deadline_ms (0 = no deadline).
  double default_queue_deadline_ms = 0.0;

  /// Construct with workers paused (requests queue but do not execute
  /// until Resume()); used by tests and maintenance windows.
  bool start_paused = false;

  /// Lane/priority/batching discipline (see lane_scheduler.h).
  SchedulerOptions scheduler;

  /// Options of the service-owned shared KeywordCache (ignored when the
  /// service attaches to an existing cache).
  KeywordCacheOptions cache;

  /// Per-slot WRIS configuration when an OnlineBackend is attached.
  /// num_threads here is the sampling parallelism INSIDE one slot's
  /// solver; cross-query parallelism comes from num_workers.
  OnlineSolverOptions wris;

  /// Breaker / retry / degradation behavior under storage faults.
  FailureHandlingOptions failure;
};

/// Point-in-time service counters. Latency percentiles and mean_queue_ms
/// cover the most recent window (kLatencyWindow samples) of FINISHED
/// requests — completed, engine-failed, or deadline-dropped — measured
/// Submit -> resolution, so overload tails include the requests that
/// were shed, not just the ones that were lucky. The fast_/slow_ fields
/// are the same measurement split by scheduler lane (index vs WRIS).
/// Everything else is a lifetime total.
struct ServiceStats {
  uint64_t submitted = 0;        ///< Accepted into the queue.
  uint64_t completed = 0;        ///< Finished with an OK result.
  uint64_t failed = 0;           ///< Finished with an engine error.
  uint64_t admission_drops = 0;  ///< Rejected at Submit (queue full).
  uint64_t deadline_drops = 0;   ///< Expired in queue before starting.
  /// Requests whose END-TO-END deadline (request_deadline_ms, e.g. the
  /// router's wire-propagated budget) had already passed when a worker
  /// dequeued them: the caller gave up, so the answer is never computed.
  uint64_t deadline_expired_at_dequeue = 0;
  uint64_t queue_peak = 0;       ///< High-water mark of pending requests.

  uint64_t irr_queries = 0;   ///< Completed per engine.
  uint64_t rr_queries = 0;
  uint64_t wris_queries = 0;

  /// Batch-aware RR dispatch: coalesced BatchQuery dispatches (>= 2
  /// requests) and the requests answered inside them.
  uint64_t rr_batches = 0;
  uint64_t rr_batched_queries = 0;

  /// Fast-lane pickups made while the WRIS reservation cap kept queued
  /// slow-lane work waiting (how often the reservation actually bit).
  uint64_t wris_deferrals = 0;

  /// Deficit cost a slow-lane pickup currently charges: the static
  /// wris_cost, or the EWMA-tuned ratio when auto_tune_costs is warm.
  /// The per-lane service-time EWMAs (ms) it derives from ride along
  /// (0 until auto-tuning has seen a sample).
  uint32_t wris_cost_effective = 0;
  double fast_service_ewma_ms = 0.0;
  double slow_service_ewma_ms = 0.0;

  double p50_ms = 0.0;  ///< Median latency over the recent window.
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;        ///< Max latency over the recent window.
  double mean_queue_ms = 0.0; ///< Lifetime mean time spent queued.

  /// Per-lane latency percentiles over each lane's own recent window.
  double fast_p50_ms = 0.0;  ///< Index lane (kIrr + kRr).
  double fast_p99_ms = 0.0;
  double slow_p50_ms = 0.0;  ///< WRIS lane.
  double slow_p99_ms = 0.0;

  /// SolverStats roll-up over completed requests. Batch-executed RR
  /// requests carry amortized per-result shares, so these sums equal the
  /// true totals (no per-batch multiple counting).
  uint64_t rr_sets_loaded = 0;
  uint64_t io_reads = 0;

  /// Shared-cache state (KeywordCache counters at snapshot time; the
  /// hit rate is hits / (hits + misses), 0 when idle).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_admission_bypasses = 0;
  uint64_t prefetches_issued = 0;
  double cache_hit_rate = 0.0;

  /// ---- Fault-domain observability (PR 6) ----
  /// Requests that FINALLY failed with each fault class (after retries
  /// and degradation were exhausted; a retried-then-successful request
  /// counts under retry_successes instead).
  uint64_t io_error_failures = 0;
  uint64_t corruption_failures = 0;
  /// Transient-I/O retry attempts made on the worker path, and requests
  /// that succeeded only thanks to at least one retry.
  uint64_t transient_retries = 0;
  uint64_t retry_successes = 0;
  /// Retrying requests re-queued with a not-before time instead of
  /// holding their worker slot through the backoff sleep (PR 10 fix: a
  /// burst of retrying requests used to idle the whole pool).
  uint64_t retry_requeues = 0;
  /// RR-block fetches served: cover-session opens and remote FetchRr
  /// calls (RequestKind::kFetchRr).
  uint64_t rr_fetches = 0;
  /// OK results served with degraded=true (some keywords dropped).
  uint64_t degraded_results = 0;
  /// Requests answered kUnavailable purely from quarantine state — shed
  /// in O(1) without touching the engines or disk.
  uint64_t quarantine_rejections = 0;
  /// Circuit-breaker transition counters (FailureDomainTable roll-up).
  uint64_t breaker_opens = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_closes = 0;
  uint64_t breaker_rejections = 0;
  /// KeywordCache fault counters at snapshot time.
  uint64_t cache_io_errors = 0;
  uint64_t cache_decode_failures = 0;
  uint64_t cache_prefetch_failures = 0;
  uint64_t cache_topic_invalidations = 0;

  /// ---- Checksum integrity (PR 7) ----
  /// Verify-on-read: stored CRC32C comparisons made by the shared cache
  /// and how many caught corrupted bytes (counted before any decode ran).
  uint64_t cache_crc_checks = 0;
  uint64_t cache_crc_failures = 0;
  /// Online scrubber roll-up (0 until SetScrubStatsProvider is wired).
  uint64_t scrub_blocks = 0;        ///< CRC units verified in background.
  uint64_t scrub_crc_failures = 0;  ///< Latent corruption detected.
  uint64_t scrub_quarantines = 0;   ///< Topics renamed aside.
  uint64_t scrub_rebuilds = 0;      ///< Topics rebuilt and re-verified.
};

/// Multiplexes concurrent IRR/RR/WRIS queries over one KeywordCache.
class QueryService {
 public:
  /// Online-sampling backend (all pointees must outlive the service).
  /// Without one, QueryEngine::kWris requests fail FailedPrecondition.
  struct OnlineBackend {
    const Graph* graph = nullptr;
    const TfIdfModel* tfidf = nullptr;
    PropagationModel model = PropagationModel::kIndependentCascade;
    /// Aligned with graph->InEdgeRange, matching `model`.
    const std::vector<float>* in_edge_weights = nullptr;
  };

  /// Opens `dir` with a fresh service-owned KeywordCache.
  static StatusOr<std::unique_ptr<QueryService>> Create(
      const std::string& dir, QueryServiceOptions options = {},
      std::optional<OnlineBackend> online = std::nullopt);

  /// Attaches to an existing cache (options.cache is ignored).
  static StatusOr<std::unique_ptr<QueryService>> Create(
      std::shared_ptr<KeywordCache> cache, QueryServiceOptions options = {},
      std::optional<OnlineBackend> online = std::nullopt);

  /// Fails queued requests with Unavailable, finishes in-flight ones,
  /// joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues a request. The future resolves to the seed set or to the
  /// admission/deadline/engine error. Queue-full rejection resolves the
  /// future immediately (Unavailable) and counts an admission drop.
  std::future<StatusOr<SeedSetResult>> Submit(ServiceRequest request)
      EXCLUDES(mu_, stats_mu_);

  /// Submit + wait: the closed-loop client call.
  StatusOr<SeedSetResult> Execute(ServiceRequest request)
      EXCLUDES(mu_, stats_mu_);

  /// Enqueues an RR-block fetch (a shard's cover session or a remote
  /// FetchRr; see RrFetchRequest). Rides the fast lane with the same
  /// admission control, deadline shedding and per-keyword breaker
  /// screening as a query, but returns the raw blocks instead of running
  /// the greedy. A
  /// topic out of range or a budget above its θ_w fails the whole fetch
  /// with kInvalidArgument before it is queued.
  std::future<StatusOr<RrFetchResult>> SubmitFetch(RrFetchRequest request)
      EXCLUDES(mu_, stats_mu_);

  /// SubmitFetch + wait.
  StatusOr<RrFetchResult> ExecuteFetch(RrFetchRequest request)
      EXCLUDES(mu_, stats_mu_);

  /// Blocks until the queue is empty and no worker is mid-query. Drains
  /// through a Pause(): paused workers execute queued requests while any
  /// Drain waits, then pause again (see the Drain-vs-Pause file comment).
  void Drain() EXCLUDES(mu_);

  /// Stops dequeuing (queued + new requests wait); Resume() restarts.
  /// A concurrent Drain() overrides the pause until it returns.
  void Pause() EXCLUDES(mu_);
  void Resume() EXCLUDES(mu_);

  /// Requests queued but not yet started.
  size_t pending() const EXCLUDES(mu_);

  /// Takes stats_mu_, mu_ and scrub_mu_ strictly in sequence — never
  /// nested (the PR 4 lock-order contract, now annotation-enforced).
  ServiceStats stats() const EXCLUDES(mu_, stats_mu_, scrub_mu_);

  /// Clears the latency/queue-wait windows, overall and per lane
  /// (lifetime counters survive), so percentiles cover only what follows
  /// — call after a warm-up pass.
  void ResetLatencyWindow() EXCLUDES(stats_mu_);

  const std::shared_ptr<KeywordCache>& cache() const { return cache_; }
  const IndexMeta& meta() const { return cache_->meta(); }

  /// Wires an IndexScrubber's counters into stats() (scrub_* fields).
  /// The provider must stay callable for the service's lifetime; pass
  /// nullptr to unwire before tearing the scrubber down.
  void SetScrubStatsProvider(std::function<IndexScrubberStats()> provider)
      EXCLUDES(scrub_mu_);

  /// READ-ONLY breaker probe for the scrubber's admit hook: true when
  /// `topic` may be touched (breaker disabled, or its state is not open).
  /// Unlike FailureDomainTable::Admit this never consumes a half-open
  /// probe, so polling it cannot perturb the breaker state machine.
  bool TopicHealthy(TopicId topic) const;

  /// Latency samples retained per percentile window.
  static constexpr size_t kLatencyWindow = 4096;

 private:
  /// Per-worker reusable solver state (only WRIS keeps mutable scratch;
  /// the index handles are stateless over the shared cache).
  struct WorkerSlot {
    std::unique_ptr<WrisSolver> wris;  // null without an OnlineBackend
  };

  /// One latency percentile ring (overall or per lane). stats_mu_ held.
  struct LatencyWindowState {
    std::vector<float> ring;
    size_t next = 0;
    uint64_t total = 0;
  };

  QueryService(std::shared_ptr<KeywordCache> cache,
               QueryServiceOptions options);

  void StartWorkers(std::optional<OnlineBackend> online);
  void WorkerLoop(uint32_t slot_id) EXCLUDES(mu_, stats_mu_);

  /// True when workers may dequeue: not paused, or a Drain is waiting.
  bool RunnableLocked() const REQUIRES(mu_) {
    return !paused_ || draining_ > 0;
  }
  /// True when a WRIS pickup fits under the reservation cap. mu_ held.
  bool WrisAllowedLocked() const REQUIRES(mu_);

  /// Collects overlapping queued kRr requests for a just-popped head,
  /// optionally waiting rr_batch_window_ms for more arrivals (mu_ is
  /// released while waiting, as with any CondVar wait); in_flight_ is
  /// bumped for every mate taken.
  void CollectRrBatchLocked(const PendingRequest& head,
                            std::vector<PendingRequest>& mates)
      REQUIRES(mu_);

  /// Executes one non-coalesced request end to end (deadline check,
  /// dispatch, stats, promise). Returns true when an engine actually ran
  /// (false = deadline drop), so only real service times feed the
  /// scheduler's cost EWMA.
  bool ProcessSingle(WorkerSlot& slot, PendingRequest pending)
      EXCLUDES(mu_, stats_mu_);
  /// Executes one RR-block fetch: deadline check, per-keyword breaker
  /// screening, cache loads, per-topic drop bookkeeping, promise.
  bool ProcessFetch(PendingRequest pending) EXCLUDES(mu_, stats_mu_);
  /// Executes a coalesced kRr batch: per-request deadline/θ screening,
  /// one RrIndex::BatchQuery, per-query promise fan-out. Returns true
  /// when the batch reached the engine.
  bool ProcessRrBatch(PendingRequest head, std::vector<PendingRequest> mates)
      EXCLUDES(mu_, stats_mu_);

  /// kRr engine availability, shared by the single and batched paths.
  Status CheckRrAvailable() const;
  /// Per-request θ^Q admission (index engines; see file comment).
  Status CheckThetaBudget(const ServiceRequest& request) const;
  StatusOr<SeedSetResult> Dispatch(WorkerSlot& slot,
                                   const ServiceRequest& request);

  /// Dispatch wrapped in the failure-domain policy: breaker admission
  /// (quarantined keywords shed in O(1)), bounded retry on transient
  /// kIOError, and culprit-keyword degradation for multi-keyword queries
  /// (see FailureHandlingOptions). The fast path — no breaker, no
  /// retries — is a tail call into Dispatch. Returns true with `*out`
  /// resolved, or FALSE when the request was re-queued for a backoff
  /// retry (retry state stashed on `pending`; the caller must neither
  /// resolve the promise nor record an outcome). With backoff 0 retries
  /// stay inline, so deterministic suites never see a requeue.
  bool DispatchResilient(WorkerSlot& slot, PendingRequest& pending,
                         StatusOr<SeedSetResult>* out)
      EXCLUDES(mu_, stats_mu_);
  /// Parks `pending` on the scheduler with not_before = now + backoff_ms
  /// (counted in retry_requeues); resolves it Unavailable on shutdown.
  void RequeueWithBackoff(PendingRequest pending, double backoff_ms)
      EXCLUDES(mu_, stats_mu_);
  /// Breaker admission for one request's keywords: splits them into
  /// admitted and quarantined. No-op (all admitted) without a breaker.
  void ScreenTopics(const std::vector<TopicId>& topics,
                    std::vector<TopicId>* admitted,
                    std::vector<TopicId>* quarantined);
  /// Listener-observed fault count per topic (culprit identification:
  /// snapshot before an engine attempt, diff after a failure).
  std::vector<uint64_t> SnapshotTopicFaults(
      const std::vector<TopicId>& topics) const;
  /// Resolves breaker verdicts after a finished engine attempt: topics
  /// whose fault count moved are the culprits (the cache listener already
  /// recorded their failures); the rest record success when `ok` or when
  /// they were read clean in a failed attempt. Returns the culprits.
  std::vector<TopicId> ResolveAttempt(const std::vector<TopicId>& topics,
                                      const std::vector<uint64_t>& before,
                                      bool ok, bool blame_unattributed);
  /// Pushes one sample into the overall + per-lane windows. stats_mu_ held.
  void RecordLatencyLocked(double latency_ms, double queue_ms,
                           EngineLane lane) REQUIRES(stats_mu_);
  /// EXCLUDES(mu_): the PR 4 rule — outcome accounting takes stats_mu_,
  /// which must never nest under the queue lock.
  void RecordOutcome(const ServiceRequest& request,
                     const StatusOr<SeedSetResult>& result,
                     double latency_ms, double queue_ms)
      EXCLUDES(mu_, stats_mu_);
  /// Resolves a deadline-expired request (stats + promise). Queue-wait
  /// deadlines are judged submitted_at -> picked_at; the end-to-end
  /// expires_at is judged against picked_at (deadline_expired_at_dequeue).
  /// Returns true when the request dropped.
  bool DropIfExpired(PendingRequest& pending) EXCLUDES(mu_, stats_mu_);
  /// Resolves whichever promise `pending`'s kind owns with `status`.
  static void ResolvePending(PendingRequest& pending, Status status);

  /// Breaker + per-topic fault counts, fed by the KeywordCache failure
  /// listener (which may fire from prefetch-pool threads, including after
  /// this service unregistered — the listener captures this state by
  /// shared_ptr, never `this`, so a straggling callback touches live
  /// memory even mid-/post-destruction).
  struct FaultDomainState {
    std::unique_ptr<FailureDomainTable> breaker;  // null when disabled
    mutable Mutex mu;
    std::unordered_map<TopicId, uint64_t> topic_faults GUARDED_BY(mu);

    void OnCacheFailure(TopicId topic, const Status& status) EXCLUDES(mu) {
      {
        MutexLock lock(&mu);
        ++topic_faults[topic];
      }
      if (breaker != nullptr) breaker->RecordFailure(topic);
    }
  };

  const std::shared_ptr<KeywordCache> cache_;
  const QueryServiceOptions options_;
  uint32_t wris_worker_cap_ = 1;  // resolved max_wris_workers
  std::optional<IrrIndex> irr_;   // engaged when meta().has_irr
  std::optional<RrIndex> rr_;     // engaged when meta().has_rr
  std::shared_ptr<FaultDomainState> fault_state_;

  mutable Mutex mu_;  // queue + lifecycle state
  CondVar work_ready_;
  CondVar idle_;  // Drain(): queue empty && none in flight
  /// LaneScheduler is not itself thread-safe; guarding the member makes
  /// "QueryService drives it under its queue mutex" compiler-checked.
  LaneScheduler scheduler_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  size_t wris_in_flight_ GUARDED_BY(mu_) = 0;
  /// Requests picked up so far (PendingRequest::pickup_seq).
  uint64_t pickups_ GUARDED_BY(mu_) = 0;
  /// Drains currently waiting (drain-through-pause).
  int draining_ GUARDED_BY(mu_) = 0;
  /// Workers inside a batch window wait.
  size_t coalesce_waiters_ GUARDED_BY(mu_) = 0;
  bool paused_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;

  /// Scrubber stats hook; own mutex so snapshotting it never nests with
  /// the queue or stats locks.
  mutable Mutex scrub_mu_;
  std::function<IndexScrubberStats()> scrub_stats_ GUARDED_BY(scrub_mu_);

  mutable Mutex stats_mu_;
  /// Percentile/cache fields filled at snapshot.
  ServiceStats counters_ GUARDED_BY(stats_mu_);
  LatencyWindowState latency_ GUARDED_BY(stats_mu_);  // overall
  LatencyWindowState lane_latency_[kNumLanes] GUARDED_BY(stats_mu_);
  double queue_ms_sum_ GUARDED_BY(stats_mu_) = 0.0;

  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> workers_;
};

}  // namespace kbtim

#endif  // KBTIM_SERVING_QUERY_SERVICE_H_
