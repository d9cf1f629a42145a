#include "serving/query_service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "index/index_format.h"

namespace kbtim {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

std::chrono::steady_clock::duration MillisDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

StatusOr<std::unique_ptr<QueryService>> QueryService::Create(
    const std::string& dir, QueryServiceOptions options,
    std::optional<OnlineBackend> online) {
  KBTIM_ASSIGN_OR_RETURN(std::shared_ptr<KeywordCache> cache,
                         KeywordCache::Create(dir, options.cache));
  return Create(std::move(cache), std::move(options), online);
}

StatusOr<std::unique_ptr<QueryService>> QueryService::Create(
    std::shared_ptr<KeywordCache> cache, QueryServiceOptions options,
    std::optional<OnlineBackend> online) {
  if (cache == nullptr) {
    return Status::InvalidArgument("QueryService needs a KeywordCache");
  }
  options.num_workers = std::max<uint32_t>(1, options.num_workers);
  options.max_pending = std::max<size_t>(1, options.max_pending);
  if (online.has_value() &&
      (online->graph == nullptr || online->tfidf == nullptr ||
       online->in_edge_weights == nullptr)) {
    return Status::InvalidArgument(
        "OnlineBackend must name a graph, a tf-idf model and edge weights");
  }
  std::unique_ptr<QueryService> service(
      new QueryService(std::move(cache), options));
  if (service->meta().has_irr) {
    KBTIM_ASSIGN_OR_RETURN(IrrIndex irr, IrrIndex::Open(service->cache_));
    service->irr_.emplace(std::move(irr));
  }
  if (service->meta().has_rr) {
    KBTIM_ASSIGN_OR_RETURN(RrIndex rr, RrIndex::Open(service->cache_));
    service->rr_.emplace(std::move(rr));
  }
  service->StartWorkers(online);
  // Subscribe to storage-fault notifications (prefetch decode failures
  // included) AFTER the service is fully constructed. The listener holds
  // the fault state by shared_ptr, never the service itself, so a
  // callback racing destruction touches live memory. One listener slot
  // per cache: a cache shared by several services reports to the
  // latest-created one.
  std::shared_ptr<FaultDomainState> state = service->fault_state_;
  service->cache_->SetFailureListener(
      [state](TopicId topic, const Status& status) {
        state->OnCacheFailure(topic, status);
      });
  return service;
}

QueryService::QueryService(std::shared_ptr<KeywordCache> cache,
                           QueryServiceOptions options)
    : cache_(std::move(cache)),
      options_(options),
      fault_state_(std::make_shared<FaultDomainState>()),
      scheduler_(options.scheduler),
      paused_(options.start_paused) {
  if (options_.failure.enable_failure_domains) {
    fault_state_->breaker =
        std::make_unique<FailureDomainTable>(options_.failure.breaker);
  }
  wris_worker_cap_ =
      options_.scheduler.max_wris_workers > 0
          ? std::min<uint32_t>(options_.scheduler.max_wris_workers,
                               options_.num_workers)
          : std::max<uint32_t>(1, options_.num_workers - 1);
  latency_.ring.resize(kLatencyWindow, 0.0f);
  for (LatencyWindowState& lane : lane_latency_) {
    lane.ring.resize(kLatencyWindow, 0.0f);
  }
}

void QueryService::StartWorkers(std::optional<OnlineBackend> online) {
  slots_.resize(options_.num_workers);
  if (online.has_value()) {
    // All worker-slot solvers sample over ONE immutable bucketed
    // adjacency (skip-ahead substrate) instead of building a per-solver
    // copy of the reverse adjacency.
    const auto adjacency = BucketedAdjacency::BuildShared(
        *online->graph, *online->in_edge_weights);
    for (WorkerSlot& slot : slots_) {
      slot.wris = std::make_unique<WrisSolver>(
          *online->graph, *online->tfidf, online->model,
          *online->in_edge_weights, options_.wris, adjacency);
    }
  }
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryService::~QueryService() {
  // Stop routing cache failures to this service first. A prefetch-thread
  // callback already past the unregister still lands safely: it holds the
  // fault state by shared_ptr, not the service.
  cache_->SetFailureListener(nullptr);
  std::deque<PendingRequest> orphaned;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    orphaned = scheduler_.DrainAll();
  }
  work_ready_.NotifyAll();
  for (PendingRequest& pending : orphaned) {
    ResolvePending(pending,
                   Status::Unavailable("query service shutting down"));
  }
  for (std::thread& worker : workers_) worker.join();
}

void QueryService::ResolvePending(PendingRequest& pending, Status status) {
  if (pending.kind == RequestKind::kFetchRr) {
    pending.fetch_promise.set_value(std::move(status));
  } else {
    pending.promise.set_value(std::move(status));
  }
}

std::future<StatusOr<SeedSetResult>> QueryService::Submit(
    ServiceRequest request) {
  // Promise construction, routing, and any rejection fulfillment happen
  // outside the locks: mu_ covers only the queue mutation and stats_mu_ is
  // never nested under it.
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submitted_at = std::chrono::steady_clock::now();
  pending.deadline_ms = pending.request.queue_deadline_ms > 0
                            ? pending.request.queue_deadline_ms
                            : options_.default_queue_deadline_ms;
  if (pending.request.request_deadline_ms > 0) {
    pending.expires_at = pending.submitted_at +
                         MillisDuration(pending.request.request_deadline_ms);
  }
  std::future<StatusOr<SeedSetResult>> future =
      pending.promise.get_future();
  // Count the submission BEFORE the request becomes visible to workers:
  // once it is pushed a worker may finish it at any moment, and stats()
  // must never observe completed > submitted. A rejection compensates.
  {
    MutexLock stats_lock(&stats_mu_);
    ++counters_.submitted;
  }
  enum class Rejection { kNone, kShutdown, kQueueFull };
  Rejection rejection = Rejection::kNone;
  size_t depth = 0;
  bool wake_all = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      rejection = Rejection::kShutdown;
    } else if (scheduler_.size() >= options_.max_pending) {
      rejection = Rejection::kQueueFull;
    } else {
      scheduler_.Push(std::move(pending));
      depth = scheduler_.size();
      // A worker holding an RR batch open swallows notify_one; reach an
      // idle worker too.
      wake_all = coalesce_waiters_ > 0;
    }
  }
  if (rejection != Rejection::kNone) {
    {
      MutexLock stats_lock(&stats_mu_);
      --counters_.submitted;
      if (rejection == Rejection::kQueueFull) ++counters_.admission_drops;
    }
    pending.promise.set_value(Status::Unavailable(
        rejection == Rejection::kShutdown
            ? "query service shutting down"
            : "query service queue full (" +
                  std::to_string(options_.max_pending) + " pending)"));
    return future;
  }
  {
    MutexLock stats_lock(&stats_mu_);
    counters_.queue_peak = std::max<uint64_t>(counters_.queue_peak, depth);
  }
  if (wake_all) {
    work_ready_.NotifyAll();
  } else {
    work_ready_.NotifyOne();
  }
  return future;
}

StatusOr<SeedSetResult> QueryService::Execute(ServiceRequest request) {
  return Submit(std::move(request)).get();
}

std::future<StatusOr<RrFetchResult>> QueryService::SubmitFetch(
    RrFetchRequest request) {
  PendingRequest pending;
  pending.kind = RequestKind::kFetchRr;
  pending.fetch = std::move(request);
  // Fast-lane routing and the batching predicates key off the engine.
  pending.request.engine = QueryEngine::kRr;
  pending.request.priority = pending.fetch.priority;
  pending.submitted_at = std::chrono::steady_clock::now();
  pending.deadline_ms = pending.fetch.queue_deadline_ms > 0
                            ? pending.fetch.queue_deadline_ms
                            : options_.default_queue_deadline_ms;
  if (pending.fetch.request_deadline_ms > 0) {
    pending.expires_at = pending.submitted_at +
                         MillisDuration(pending.fetch.request_deadline_ms);
  }
  std::future<StatusOr<RrFetchResult>> future =
      pending.fetch_promise.get_future();
  // Shape validation before the queue: a malformed fetch never costs a
  // worker slot.
  Status invalid;
  if (pending.fetch.topics.size() != pending.fetch.budgets.size() ||
      pending.fetch.topics.empty()) {
    invalid = Status::InvalidArgument(
        "fetch topics and budgets must align and be non-empty");
  } else if (!meta().has_rr) {
    invalid = Status::FailedPrecondition(
        "index directory has no RR structures: " + cache_->dir());
  } else {
    for (size_t i = 0; i < pending.fetch.topics.size(); ++i) {
      const TopicId topic = pending.fetch.topics[i];
      if (topic >= meta().num_topics) {
        invalid = Status::InvalidArgument(
            "fetch topic " + std::to_string(topic) + " out of range");
        break;
      }
      const uint64_t theta = meta().topics[topic].theta;
      if (pending.fetch.budgets[i] > theta) {
        invalid = Status::InvalidArgument(
            "fetch budget " + std::to_string(pending.fetch.budgets[i]) +
            " exceeds theta_w " + std::to_string(theta) + " of topic " +
            std::to_string(topic));
        break;
      }
    }
  }
  if (!invalid.ok()) {
    pending.fetch_promise.set_value(std::move(invalid));
    return future;
  }
  {
    MutexLock stats_lock(&stats_mu_);
    ++counters_.submitted;
  }
  enum class Rejection { kNone, kShutdown, kQueueFull };
  Rejection rejection = Rejection::kNone;
  size_t depth = 0;
  bool wake_all = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      rejection = Rejection::kShutdown;
    } else if (scheduler_.size() >= options_.max_pending) {
      rejection = Rejection::kQueueFull;
    } else {
      scheduler_.Push(std::move(pending));
      depth = scheduler_.size();
      wake_all = coalesce_waiters_ > 0;
    }
  }
  if (rejection != Rejection::kNone) {
    {
      MutexLock stats_lock(&stats_mu_);
      --counters_.submitted;
      if (rejection == Rejection::kQueueFull) ++counters_.admission_drops;
    }
    pending.fetch_promise.set_value(Status::Unavailable(
        rejection == Rejection::kShutdown
            ? "query service shutting down"
            : "query service queue full (" +
                  std::to_string(options_.max_pending) + " pending)"));
    return future;
  }
  {
    MutexLock stats_lock(&stats_mu_);
    counters_.queue_peak = std::max<uint64_t>(counters_.queue_peak, depth);
  }
  if (wake_all) {
    work_ready_.NotifyAll();
  } else {
    work_ready_.NotifyOne();
  }
  return future;
}

StatusOr<RrFetchResult> QueryService::ExecuteFetch(RrFetchRequest request) {
  return SubmitFetch(std::move(request)).get();
}

bool QueryService::WrisAllowedLocked() const {
  if (options_.scheduler.mode == SchedulingMode::kFifo) return true;
  return wris_in_flight_ < wris_worker_cap_;
}

void QueryService::CollectRrBatchLocked(const PendingRequest& head,
                                        std::vector<PendingRequest>& mates) {
  const SchedulerOptions& sched = scheduler_.options();
  if (sched.mode != SchedulingMode::kLanes || sched.rr_max_batch <= 1) {
    return;
  }
  const size_t max_mates = sched.rr_max_batch - 1;
  auto take = [&] {
    std::vector<PendingRequest> more = scheduler_.PopRrBatchMates(
        head.request.query, max_mates - mates.size());
    in_flight_ += more.size();
    const auto now = std::chrono::steady_clock::now();
    for (PendingRequest& mate : more) {
      mate.picked_at = now;
      mate.pickup_seq = ++pickups_;
      mates.push_back(std::move(mate));
    }
  };
  take();
  if (sched.rr_batch_window_ms <= 0 || mates.size() >= max_mates) return;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              sched.rr_batch_window_ms));
  ++coalesce_waiters_;
  while (!shutdown_ && mates.size() < max_mates) {
    if (work_ready_.WaitUntil(&mu_, deadline) == std::cv_status::timeout) {
      break;
    }
    if (shutdown_) break;
    // A Pause() landed mid-window: stop collecting (starting queued work
    // during a pause would violate the Pause contract) and dispatch what
    // the batch already holds.
    if (!RunnableLocked()) break;
    take();
    // A notification this wait swallowed might have been meant for an
    // idle worker; hand it on when non-batchable work is runnable.
    if (scheduler_.HasEligible(WrisAllowedLocked())) {
      work_ready_.NotifyOne();
    }
  }
  --coalesce_waiters_;
}

void QueryService::WorkerLoop(uint32_t slot_id) {
  WorkerSlot& slot = slots_[slot_id];
  for (;;) {
    PendingRequest pending;
    std::vector<PendingRequest> mates;
    bool is_wris = false;
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (shutdown_) return;
        // Parked backoff retries come back into their lanes here; when
        // only parked work exists the wait below is timed so a worker
        // wakes exactly when the earliest not-before passes.
        scheduler_.PromoteReady(std::chrono::steady_clock::now());
        if (RunnableLocked() &&
            scheduler_.HasEligible(WrisAllowedLocked())) {
          break;
        }
        const std::optional<std::chrono::steady_clock::time_point> parked =
            scheduler_.NextNotBefore();
        if (parked.has_value() && RunnableLocked()) {
          work_ready_.WaitUntil(&mu_, *parked);
        } else {
          work_ready_.Wait(&mu_);
        }
      }
      std::optional<PendingRequest> popped =
          scheduler_.Pop(WrisAllowedLocked());
      if (!popped.has_value()) continue;
      pending = std::move(*popped);
      pending.picked_at = std::chrono::steady_clock::now();
      pending.pickup_seq = ++pickups_;
      is_wris = pending.kind == RequestKind::kSolve &&
                pending.request.engine == QueryEngine::kWris;
      ++in_flight_;
      if (is_wris) ++wris_in_flight_;
      if (pending.kind == RequestKind::kSolve &&
          pending.request.engine == QueryEngine::kRr) {
        CollectRrBatchLocked(pending, mates);
      }
    }

    const size_t taken = mates.size();
    const EngineLane lane = LaneOf(pending.request.engine);
    const auto exec_start = std::chrono::steady_clock::now();
    bool executed;
    if (pending.kind == RequestKind::kFetchRr) {
      executed = ProcessFetch(std::move(pending));
    } else if (taken > 0) {
      executed = ProcessRrBatch(std::move(pending), std::move(mates));
    } else {
      executed = ProcessSingle(slot, std::move(pending));
    }
    const double exec_ms =
        MillisSince(exec_start, std::chrono::steady_clock::now());

    bool wris_slot_freed = false;
    {
      MutexLock lock(&mu_);
      // Engine time only (deadline drops excluded): this is the per-class
      // cost signal the auto-tuned deficit charge derives from.
      if (executed) scheduler_.RecordServiceTime(lane, exec_ms);
      in_flight_ -= 1 + taken;
      if (is_wris) {
        --wris_in_flight_;
        wris_slot_freed = scheduler_.lane_size(EngineLane::kSlow) > 0;
      }
      if (scheduler_.empty() && in_flight_ == 0) idle_.NotifyAll();
    }
    // Freeing a WRIS reservation may unblock workers that found no
    // eligible work while the cap was reached.
    if (wris_slot_freed) work_ready_.NotifyAll();
  }
}

bool QueryService::DropIfExpired(PendingRequest& pending) {
  const double queue_ms =
      MillisSince(pending.submitted_at, pending.picked_at);
  // End-to-end expiry first: the caller (e.g. a remote router) has
  // already given up on this request, so computing its answer would only
  // burn the worker slot.
  const bool wire_expired =
      pending.expires_at.has_value() && pending.picked_at > *pending.expires_at;
  const bool queue_expired =
      pending.deadline_ms > 0 && queue_ms > pending.deadline_ms;
  if (!wire_expired && !queue_expired) return false;
  {
    // Dropped requests still spent their queue time as far as the client
    // is concerned: they land in the latency windows so overload
    // percentiles include what was shed.
    MutexLock stats_lock(&stats_mu_);
    if (wire_expired) {
      ++counters_.deadline_expired_at_dequeue;
    } else {
      ++counters_.deadline_drops;
    }
    RecordLatencyLocked(queue_ms, queue_ms, LaneOf(pending.request.engine));
  }
  ResolvePending(
      pending,
      Status::DeadlineExceeded(
          wire_expired
              ? "request deadline expired before dequeue (" +
                    std::to_string(queue_ms) + " ms queued)"
              : "queued " + std::to_string(queue_ms) + " ms past the " +
                    std::to_string(pending.deadline_ms) + " ms deadline"));
  return true;
}

bool QueryService::ProcessSingle(WorkerSlot& slot, PendingRequest pending) {
  if (DropIfExpired(pending)) return false;
  const double queue_ms =
      MillisSince(pending.submitted_at, pending.picked_at);
  StatusOr<SeedSetResult> result{
      Status::Internal("dispatch left the result unset")};
  if (!DispatchResilient(slot, pending, &result)) {
    // Re-queued for a backoff retry: the promise travels with it, and the
    // outcome is recorded by whichever pickup finishes it. The engine DID
    // run (and fail), so the service-time sample still counts.
    return true;
  }
  if (result.ok()) result->stats.pickup_seq = pending.pickup_seq;
  const double latency_ms =
      MillisSince(pending.submitted_at, std::chrono::steady_clock::now());
  RecordOutcome(pending.request, result, latency_ms, queue_ms);
  pending.promise.set_value(std::move(result));
  return true;
}

bool QueryService::ProcessFetch(PendingRequest pending) {
  if (DropIfExpired(pending)) return false;
  const double queue_ms =
      MillisSince(pending.submitted_at, pending.picked_at);
  const RrFetchRequest& fetch = pending.fetch;
  RrFetchResult out;
  out.blocks.assign(fetch.topics.size(), nullptr);
  FailureDomainTable* breaker = fault_state_->breaker.get();
  for (size_t i = 0; i < fetch.topics.size(); ++i) {
    const TopicId topic = fetch.topics[i];
    if (fetch.budgets[i] == 0) continue;  // no index mass: nothing to ship
    if (breaker != nullptr && !breaker->Admit(topic)) {
      // Quarantined keyword: shed in O(1), the router hedges or degrades.
      out.dropped.push_back(topic);
      continue;
    }
    StatusOr<std::shared_ptr<const RrKeywordBlock>> block =
        cache_->GetRrKeyword(topic, fetch.budgets[i]);
    if (block.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess(topic);
      out.blocks[i] = std::move(*block);
    } else {
      // The cache already classified the failure (handles dropped /
      // topic invalidated) and its listener recorded it against the
      // breaker; the fetch answer just marks the keyword dropped.
      out.dropped.push_back(topic);
    }
  }
  {
    MutexLock stats_lock(&stats_mu_);
    ++counters_.rr_fetches;
    ++counters_.completed;
    RecordLatencyLocked(
        MillisSince(pending.submitted_at, std::chrono::steady_clock::now()),
        queue_ms, EngineLane::kFast);
  }
  pending.fetch_promise.set_value(std::move(out));
  return true;
}

bool QueryService::ProcessRrBatch(PendingRequest head,
                                  std::vector<PendingRequest> mates) {
  std::vector<PendingRequest> all;
  all.reserve(1 + mates.size());
  all.push_back(std::move(head));
  for (PendingRequest& mate : mates) all.push_back(std::move(mate));

  // Per-request screening: expired or over-budget requests resolve
  // individually and drop out of the batch. Deadlines and queue time are
  // measured submitted_at -> picked_at, so the batch window the service
  // itself held the requests open for never expires them.
  std::vector<PendingRequest> live;
  std::vector<double> queue_ms;
  std::vector<Query> queries;
  std::vector<std::vector<TopicId>> dropped_for;  // aligned with live
  live.reserve(all.size());
  for (PendingRequest& pending : all) {
    if (DropIfExpired(pending)) continue;
    Status budget = CheckThetaBudget(pending.request);
    if (budget.ok()) budget = CheckRrAvailable();
    if (!budget.ok()) {
      StatusOr<SeedSetResult> failure{std::move(budget)};
      const double ms = MillisSince(pending.submitted_at,
                                    std::chrono::steady_clock::now());
      const double waited =
          MillisSince(pending.submitted_at, pending.picked_at);
      RecordOutcome(pending.request, failure, ms, waited);
      pending.promise.set_value(std::move(failure));
      continue;
    }
    // Breaker admission, per request. A batch member whose keywords are
    // partly quarantined degrades individually (its rewritten query still
    // overlaps the batch); fully-quarantined members shed in O(1). Unlike
    // the single path there is no intra-batch retry — a failed BatchQuery
    // fails its members, and the breakers make the NEXT batch avoid the
    // sick keyword.
    std::vector<TopicId> admitted;
    std::vector<TopicId> quarantined;
    ScreenTopics(pending.request.query.topics, &admitted, &quarantined);
    if (admitted.empty() ||
        (!quarantined.empty() && !options_.failure.partial_results)) {
      {
        MutexLock stats_lock(&stats_mu_);
        ++counters_.quarantine_rejections;
      }
      StatusOr<SeedSetResult> failure{Status::Unavailable(
          admitted.empty()
              ? "all query keywords are quarantined (circuit open)"
              : "a query keyword is quarantined (circuit open)")};
      const double ms = MillisSince(pending.submitted_at,
                                    std::chrono::steady_clock::now());
      const double waited =
          MillisSince(pending.submitted_at, pending.picked_at);
      RecordOutcome(pending.request, failure, ms, waited);
      pending.promise.set_value(std::move(failure));
      continue;
    }
    pending.request.query.topics = std::move(admitted);
    dropped_for.push_back(std::move(quarantined));
    queue_ms.push_back(MillisSince(pending.submitted_at, pending.picked_at));
    queries.push_back(pending.request.query);
    live.push_back(std::move(pending));
  }
  if (live.empty()) return false;

  // One shared load + greedy pass; per-query results are bit-identical to
  // serial Query() calls and carry amortized batch stats.
  StatusOr<std::vector<SeedSetResult>> results = rr_->BatchQuery(queries);
  if (!results.ok()) {
    // Culprit keywords were already recorded against their breakers by
    // the cache failure listener as the load failed; untouched keywords
    // carry no new evidence, so no success verdicts here.
    for (size_t i = 0; i < live.size(); ++i) {
      StatusOr<SeedSetResult> failure{results.status()};
      const double ms = MillisSince(live[i].submitted_at,
                                    std::chrono::steady_clock::now());
      RecordOutcome(live[i].request, failure, ms, queue_ms[i]);
      live[i].promise.set_value(std::move(failure));
    }
    return true;
  }
  if (fault_state_->breaker != nullptr) {
    for (const Query& query : queries) {
      for (TopicId topic : query.topics) {
        fault_state_->breaker->RecordSuccess(topic);
      }
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    (*results)[i].stats.pickup_seq = live[i].pickup_seq;
    if (!dropped_for[i].empty()) {
      (*results)[i].degraded = true;
      (*results)[i].dropped_keywords = std::move(dropped_for[i]);
    }
    StatusOr<SeedSetResult> result{std::move((*results)[i])};
    const double ms = MillisSince(live[i].submitted_at,
                                  std::chrono::steady_clock::now());
    RecordOutcome(live[i].request, result, ms, queue_ms[i]);
    live[i].promise.set_value(std::move(result));
  }
  if (live.size() >= 2) {
    MutexLock stats_lock(&stats_mu_);
    ++counters_.rr_batches;
    counters_.rr_batched_queries += live.size();
  }
  return true;
}

Status QueryService::CheckRrAvailable() const {
  if (rr_.has_value()) return Status::OK();
  return Status::FailedPrecondition(
      "index directory has no RR structures: " + cache_->dir());
}

Status QueryService::CheckThetaBudget(const ServiceRequest& request) const {
  // Per-request θ budget: index queries are costed (Eqn. 11) before any
  // keyword file is touched; WRIS clamps inside Solve. The engine Query
  // recomputes the same budget internally — a few-keyword arithmetic
  // loop, accepted over widening the index Query signatures.
  if (request.max_theta == 0 || request.engine == QueryEngine::kWris) {
    return Status::OK();
  }
  StatusOr<QueryBudget> budget = ComputeQueryBudget(meta(), request.query);
  if (!budget.ok()) return budget.status();
  if (budget->theta_q > request.max_theta) {
    return Status::FailedPrecondition(
        "query theta " + std::to_string(budget->theta_q) +
        " exceeds the per-request budget " +
        std::to_string(request.max_theta));
  }
  return Status::OK();
}

StatusOr<SeedSetResult> QueryService::Dispatch(
    WorkerSlot& slot, const ServiceRequest& request) {
  KBTIM_RETURN_IF_ERROR(CheckThetaBudget(request));
  switch (request.engine) {
    case QueryEngine::kIrr:
      if (!irr_.has_value()) {
        return Status::FailedPrecondition(
            "index directory has no IRR structures: " + cache_->dir());
      }
      return irr_->Query(request.query, request.irr_mode);
    case QueryEngine::kRr:
      KBTIM_RETURN_IF_ERROR(CheckRrAvailable());
      return rr_->Query(request.query);
    case QueryEngine::kWris:
      if (slot.wris == nullptr) {
        return Status::FailedPrecondition(
            "no OnlineBackend attached for WRIS queries");
      }
      return slot.wris->Solve(request.query, request.max_theta);
  }
  return Status::Internal("unknown query engine");
}

bool QueryService::DispatchResilient(WorkerSlot& slot,
                                     PendingRequest& pending,
                                     StatusOr<SeedSetResult>* out) {
  const FailureHandlingOptions& fh = options_.failure;
  const ServiceRequest& request = pending.request;
  // WRIS samples in memory — there is no storage underneath to fault. And
  // a service with every failure feature off keeps the bare dispatch path.
  if (request.engine == QueryEngine::kWris ||
      (fault_state_->breaker == nullptr && fh.io_retries == 0 &&
       !fh.partial_results)) {
    *out = Dispatch(slot, request);
    return true;
  }
  // Resume any retry state a previous pickup parked with the request: the
  // already-shrunken keyword set lives in pending.request, the keywords it
  // shed in dropped_so_far, and the consumed retry budget in retries_used.
  ServiceRequest attempt = request;
  std::vector<TopicId> dropped = std::move(pending.dropped_so_far);
  uint32_t retries_left = fh.io_retries > pending.retries_used
                              ? fh.io_retries - pending.retries_used
                              : 0;
  double backoff_ms = pending.retries_used == 0 ? fh.retry_backoff_ms
                                                : pending.next_backoff_ms;
  for (;;) {
    std::vector<TopicId> admitted;
    std::vector<TopicId> quarantined;
    ScreenTopics(attempt.query.topics, &admitted, &quarantined);
    if (admitted.empty() ||
        (!quarantined.empty() && !fh.partial_results)) {
      // Shed in O(1): quarantine verdicts cost one hash lookup per
      // keyword, never disk (the chaos suite asserts a zero IoCounter
      // delta on this path).
      {
        MutexLock stats_lock(&stats_mu_);
        ++counters_.quarantine_rejections;
      }
      *out = Status::Unavailable(
          admitted.empty()
              ? "all query keywords are quarantined (circuit open)"
              : "a query keyword is quarantined (circuit open)");
      return true;
    }
    dropped.insert(dropped.end(), quarantined.begin(), quarantined.end());
    attempt.query.topics = std::move(admitted);

    const std::vector<uint64_t> before =
        SnapshotTopicFaults(attempt.query.topics);
    StatusOr<SeedSetResult> result = Dispatch(slot, attempt);
    if (result.ok()) {
      ResolveAttempt(attempt.query.topics, before, /*ok=*/true,
                     /*blame_unattributed=*/false);
      if (retries_left < fh.io_retries || pending.retries_used > 0) {
        MutexLock stats_lock(&stats_mu_);
        ++counters_.retry_successes;
      }
      if (!dropped.empty()) {
        result->degraded = true;
        result->dropped_keywords = std::move(dropped);
      }
      *out = std::move(result);
      return true;
    }
    const StatusCode code = result.status().code();
    if (code != StatusCode::kIOError && code != StatusCode::kCorruption) {
      // Overload, validation and budget failures are not fault-domain
      // signals: no breaker verdicts, no retries, fail as before PR 6.
      *out = std::move(result);
      return true;
    }
    if (code == StatusCode::kIOError && retries_left > 0) {
      // Transient read failure: the cache dropped the topic's file
      // handles, so the retry reopens them. kCorruption never retries —
      // the cache already invalidated the topic, and re-decoding the same
      // bytes cannot succeed within this request's latency budget.
      --retries_left;
      {
        MutexLock stats_lock(&stats_mu_);
        ++counters_.transient_retries;
      }
      if (backoff_ms > 0.0) {
        // Park the request with a not-before time instead of sleeping in
        // this worker slot: a burst of retrying requests used to idle the
        // whole pool for their combined backoff. Retry state rides on the
        // request; the next pickup resumes it with a fresh fault snapshot.
        pending.retries_used = fh.io_retries - retries_left;
        pending.next_backoff_ms = backoff_ms * 2.0;
        pending.dropped_so_far = std::move(dropped);
        pending.request.query.topics = std::move(attempt.query.topics);
        RequeueWithBackoff(std::move(pending), backoff_ms);
        return false;
      }
      continue;  // same keyword set, fresh fault snapshot next round
    }
    // Retries exhausted (or unretryable): identify which keywords broke
    // and, when allowed, re-solve around them.
    const std::vector<TopicId> culprits =
        ResolveAttempt(attempt.query.topics, before, /*ok=*/false,
                       /*blame_unattributed=*/true);
    if (!fh.partial_results ||
        culprits.size() >= attempt.query.topics.size()) {
      *out = std::move(result);
      return true;
    }
    std::vector<TopicId> healthy;
    healthy.reserve(attempt.query.topics.size() - culprits.size());
    for (TopicId topic : attempt.query.topics) {
      if (std::find(culprits.begin(), culprits.end(), topic) ==
          culprits.end()) {
        healthy.push_back(topic);
      }
    }
    if (healthy.empty()) {
      *out = std::move(result);
      return true;
    }
    dropped.insert(dropped.end(), culprits.begin(), culprits.end());
    attempt.query.topics = std::move(healthy);
    // Loop: the keyword set strictly shrinks every degradation pass, so
    // the walk ends after at most |topics| rounds.
  }
}

void QueryService::RequeueWithBackoff(PendingRequest pending,
                                      double backoff_ms) {
  pending.not_before =
      std::chrono::steady_clock::now() + MillisDuration(backoff_ms);
  bool parked = false;
  {
    MutexLock lock(&mu_);
    if (!shutdown_) {
      scheduler_.Park(std::move(pending));
      parked = true;
    }
  }
  if (!parked) {
    // Shutdown raced the retry; the request was still in flight from the
    // destructor's point of view, so resolve it here.
    ResolvePending(pending,
                   Status::Unavailable("query service shutting down"));
    return;
  }
  {
    MutexLock stats_lock(&stats_mu_);
    ++counters_.retry_requeues;
  }
  // Every worker recomputes its timed wait against the new earliest
  // not-before (NotifyOne could wake one that immediately sleeps forever).
  work_ready_.NotifyAll();
}

void QueryService::ScreenTopics(const std::vector<TopicId>& topics,
                                std::vector<TopicId>* admitted,
                                std::vector<TopicId>* quarantined) {
  FailureDomainTable* breaker = fault_state_->breaker.get();
  if (breaker == nullptr) {
    *admitted = topics;
    return;
  }
  for (TopicId topic : topics) {
    (breaker->Admit(topic) ? admitted : quarantined)->push_back(topic);
  }
}

std::vector<uint64_t> QueryService::SnapshotTopicFaults(
    const std::vector<TopicId>& topics) const {
  std::vector<uint64_t> counts;
  counts.reserve(topics.size());
  MutexLock lock(&fault_state_->mu);
  for (TopicId topic : topics) {
    const auto it = fault_state_->topic_faults.find(topic);
    counts.push_back(it == fault_state_->topic_faults.end() ? 0
                                                            : it->second);
  }
  return counts;
}

std::vector<TopicId> QueryService::ResolveAttempt(
    const std::vector<TopicId>& topics, const std::vector<uint64_t>& before,
    bool ok, bool blame_unattributed) {
  FailureDomainTable* breaker = fault_state_->breaker.get();
  if (ok) {
    if (breaker != nullptr) {
      for (TopicId topic : topics) breaker->RecordSuccess(topic);
    }
    return {};
  }
  const std::vector<uint64_t> after = SnapshotTopicFaults(topics);
  std::vector<TopicId> culprits;
  for (size_t i = 0; i < topics.size(); ++i) {
    // Moved fault count == the cache listener attributed a failure to
    // this keyword during the attempt; its breaker already heard it.
    if (after[i] > before[i]) culprits.push_back(topics[i]);
  }
  if (culprits.empty() && blame_unattributed) {
    // The failure never passed through the cache (e.g. detected inside
    // an already-cached block): no keyword can be singled out, so every
    // attempted keyword takes the blame — the breakers still learn, but
    // degradation cannot narrow the query.
    culprits = topics;
    if (breaker != nullptr) {
      for (TopicId topic : topics) breaker->RecordFailure(topic);
    }
  }
  return culprits;
}

void QueryService::RecordLatencyLocked(double latency_ms, double queue_ms,
                                       EngineLane lane) {
  queue_ms_sum_ += queue_ms;
  latency_.ring[latency_.next] = static_cast<float>(latency_ms);
  latency_.next = (latency_.next + 1) % kLatencyWindow;
  ++latency_.total;
  LatencyWindowState& lw = lane_latency_[static_cast<size_t>(lane)];
  lw.ring[lw.next] = static_cast<float>(latency_ms);
  lw.next = (lw.next + 1) % kLatencyWindow;
  ++lw.total;
}

void QueryService::RecordOutcome(const ServiceRequest& request,
                                 const StatusOr<SeedSetResult>& result,
                                 double latency_ms, double queue_ms) {
  MutexLock lock(&stats_mu_);
  RecordLatencyLocked(latency_ms, queue_ms, LaneOf(request.engine));
  if (!result.ok()) {
    ++counters_.failed;
    switch (result.status().code()) {
      case StatusCode::kIOError: ++counters_.io_error_failures; break;
      case StatusCode::kCorruption: ++counters_.corruption_failures; break;
      default: break;
    }
    return;
  }
  ++counters_.completed;
  if (result->degraded) ++counters_.degraded_results;
  switch (request.engine) {
    case QueryEngine::kIrr: ++counters_.irr_queries; break;
    case QueryEngine::kRr: ++counters_.rr_queries; break;
    case QueryEngine::kWris: ++counters_.wris_queries; break;
  }
  counters_.rr_sets_loaded += result->stats.rr_sets_loaded;
  counters_.io_reads += result->stats.io_reads;
}

void QueryService::Drain() {
  MutexLock lock(&mu_);
  ++draining_;
  // Wake workers that went to sleep on a pause: while this drain waits
  // they run the queue down even on a Pause()d service
  // (drain-through-pause), then honor the pause again.
  work_ready_.NotifyAll();
  while (!(scheduler_.empty() && in_flight_ == 0)) {
    idle_.Wait(&mu_);
  }
  --draining_;
}

void QueryService::Pause() {
  MutexLock lock(&mu_);
  paused_ = true;
}

void QueryService::Resume() {
  {
    MutexLock lock(&mu_);
    paused_ = false;
  }
  work_ready_.NotifyAll();
}

void QueryService::ResetLatencyWindow() {
  MutexLock lock(&stats_mu_);
  latency_.next = 0;
  latency_.total = 0;
  for (LatencyWindowState& lane : lane_latency_) {
    lane.next = 0;
    lane.total = 0;
  }
  queue_ms_sum_ = 0.0;
}

size_t QueryService::pending() const {
  MutexLock lock(&mu_);
  return scheduler_.size();
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  std::vector<float> window;
  std::vector<float> lane_window[kNumLanes];
  double queue_sum = 0.0;
  uint64_t finished = 0;
  {
    MutexLock lock(&stats_mu_);
    out = counters_;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(latency_.total, kLatencyWindow));
    window.assign(latency_.ring.begin(), latency_.ring.begin() + n);
    for (size_t li = 0; li < kNumLanes; ++li) {
      const LatencyWindowState& lw = lane_latency_[li];
      const size_t ln = static_cast<size_t>(
          std::min<uint64_t>(lw.total, kLatencyWindow));
      lane_window[li].assign(lw.ring.begin(), lw.ring.begin() + ln);
    }
    queue_sum = queue_ms_sum_;
    finished = latency_.total;
  }
  auto percentile = [](std::vector<float>& w, double q) {
    const size_t idx = static_cast<size_t>(
        q * static_cast<double>(w.size() - 1) + 0.5);
    return static_cast<double>(w[idx]);
  };
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    out.p50_ms = percentile(window, 0.50);
    out.p90_ms = percentile(window, 0.90);
    out.p99_ms = percentile(window, 0.99);
    out.max_ms = static_cast<double>(window.back());
  }
  auto& fast = lane_window[static_cast<size_t>(EngineLane::kFast)];
  if (!fast.empty()) {
    std::sort(fast.begin(), fast.end());
    out.fast_p50_ms = percentile(fast, 0.50);
    out.fast_p99_ms = percentile(fast, 0.99);
  }
  auto& slow = lane_window[static_cast<size_t>(EngineLane::kSlow)];
  if (!slow.empty()) {
    std::sort(slow.begin(), slow.end());
    out.slow_p50_ms = percentile(slow, 0.50);
    out.slow_p99_ms = percentile(slow, 0.99);
  }
  if (finished > 0) {
    out.mean_queue_ms = queue_sum / static_cast<double>(finished);
  }
  {
    // Scheduler counters live under the queue mutex; never nested with
    // stats_mu_.
    MutexLock lock(&mu_);
    out.wris_deferrals = scheduler_.wris_deferrals();
    out.wris_cost_effective = scheduler_.EffectiveWrisCost();
    out.fast_service_ewma_ms =
        scheduler_.ServiceTimeEwmaMs(EngineLane::kFast);
    out.slow_service_ewma_ms =
        scheduler_.ServiceTimeEwmaMs(EngineLane::kSlow);
  }
  const KeywordCacheStats cache = cache_->stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_bytes = cache.bytes_cached;
  out.cache_admission_bypasses = cache.admission_bypasses;
  out.prefetches_issued = cache.prefetches_issued;
  const uint64_t lookups = cache.hits + cache.misses;
  out.cache_hit_rate =
      lookups > 0
          ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
          : 0.0;
  out.cache_io_errors = cache.io_errors;
  out.cache_decode_failures = cache.decode_failures;
  out.cache_prefetch_failures = cache.prefetch_failures;
  out.cache_topic_invalidations = cache.topic_invalidations;
  out.cache_crc_checks = cache.crc_checks;
  out.cache_crc_failures = cache.crc_failures;
  if (fault_state_->breaker != nullptr) {
    const FailureDomainStats breaker = fault_state_->breaker->stats();
    out.breaker_opens = breaker.opens;
    out.breaker_probes = breaker.probes;
    out.breaker_closes = breaker.closes;
    out.breaker_rejections = breaker.rejections;
  }
  std::function<IndexScrubberStats()> scrub_provider;
  {
    MutexLock lock(&scrub_mu_);
    scrub_provider = scrub_stats_;
  }
  if (scrub_provider) {
    const IndexScrubberStats scrub = scrub_provider();
    out.scrub_blocks = scrub.blocks_scrubbed;
    out.scrub_crc_failures = scrub.crc_failures;
    out.scrub_quarantines = scrub.quarantines;
    out.scrub_rebuilds = scrub.rebuilds;
  }
  return out;
}

void QueryService::SetScrubStatsProvider(
    std::function<IndexScrubberStats()> provider) {
  MutexLock lock(&scrub_mu_);
  scrub_stats_ = std::move(provider);
}

bool QueryService::TopicHealthy(TopicId topic) const {
  if (fault_state_->breaker == nullptr) return true;
  return fault_state_->breaker->state(topic) != BreakerState::kOpen;
}

}  // namespace kbtim
