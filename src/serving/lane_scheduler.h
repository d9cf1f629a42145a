// Engine-class scheduler backing the QueryService queue.
//
// PR 3's single FIFO let one ~10x-slower WRIS solve head-of-line-block a
// stream of cheap index queries. This scheduler replaces it:
//
//   Submit ──route by engine──► fast lane (kIrr/kRr)  ┐ weighted deficit
//                               slow lane (kWris)     ┘ round-robin pickup
//        each lane: one FIFO deque per RequestPriority (high > normal > low)
//
//   * Deficit round robin: each lane accrues `weight` deficit per top-up
//     round and pays `cost` per pickup (index_cost vs wris_cost, the
//     measured ~10x gap). With both lanes backlogged the fast lane gets
//     fast_lane_weight : slow_lane_weight of the worker COST budget — a
//     WRIS backlog can delay an index query by at most one in-flight solve
//     per unreserved worker, never by the whole backlog.
//   * Worker reservations: the service caps concurrent WRIS pickups
//     (max_wris_workers); Pop(wris_allowed=false) skips the slow lane and
//     counts a deferral, so the fast lane always has at least one worker.
//   * Batch mates: PopRrBatchMates pulls queued kRr requests whose keyword
//     sets overlap a just-popped head, feeding RrIndex::BatchQuery — the
//     coalesced requests ride along at the cost of ~one query.
//   * kFifo mode reproduces the PR 3 single queue exactly (strict
//     submission order, no lanes, no reservations, no coalescing) — the
//     bench baseline and A/B switch.
//
// The scheduler is NOT thread-safe: QueryService drives it under its
// queue mutex. It owns no condition variables and never blocks.
#ifndef KBTIM_SERVING_LANE_SCHEDULER_H_
#define KBTIM_SERVING_LANE_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <vector>

#include "common/statusor.h"
#include "sampling/solver_result.h"
#include "serving/service_request.h"

namespace kbtim {

/// Queue discipline of the service.
enum class SchedulingMode : uint8_t {
  kLanes = 0,  ///< Priority lanes + deficit RR (the default).
  kFifo = 1,   ///< PR 3's single FIFO (baseline / ablation).
};

/// Scheduler knobs (defaults follow the measured ~10x WRIS:index cost gap).
struct SchedulerOptions {
  SchedulingMode mode = SchedulingMode::kLanes;

  /// Deficit quantum added per top-up round. With both lanes backlogged
  /// the lanes split worker cost 4:1 in favor of index queries.
  uint32_t fast_lane_weight = 4;
  uint32_t slow_lane_weight = 1;

  /// Deficit charge per pickup — the relative cost of one request.
  uint32_t index_cost = 1;
  uint32_t wris_cost = 10;

  /// Cap on concurrently executing WRIS requests; 0 = auto
  /// (num_workers - 1, floored at 1) so WRIS can never occupy every slot.
  uint32_t max_wris_workers = 0;

  /// Batch-aware RR dispatch: a worker popping a kRr request also takes up
  /// to rr_max_batch - 1 queued kRr requests with overlapping keyword sets
  /// and answers them in one RrIndex::BatchQuery. 1 disables coalescing.
  uint32_t rr_max_batch = 8;

  /// Extra milliseconds a worker holding an underfull RR batch waits for
  /// more batchable arrivals before dispatching. 0 = coalesce only what is
  /// already queued (no added latency).
  double rr_batch_window_ms = 0.0;

  /// EWMA auto-tuning of the slow lane's deficit cost. The static
  /// wris_cost encodes the ~10x WRIS:index gap measured once on one
  /// machine; with auto_tune_costs the service feeds measured per-class
  /// service times into RecordServiceTime and WRIS pickups charge the
  /// OBSERVED ratio round(slow_ewma / fast_ewma · index_cost) instead —
  /// clamped to [1, max_auto_cost] and engaged only once both lanes have
  /// kCostWarmupSamples (the static cost remains the tested baseline and
  /// the cold-start fallback).
  bool auto_tune_costs = false;

  /// Weight of the newest service-time sample in the EWMA, in (0, 1].
  double cost_ewma_alpha = 0.2;

  /// Clamp on the auto-tuned WRIS pickup cost.
  uint32_t max_auto_cost = 256;
};

/// A queued request with its resolution promise and admission timestamps.
struct PendingRequest {
  ServiceRequest request;
  std::promise<StatusOr<SeedSetResult>> promise;
  std::chrono::steady_clock::time_point submitted_at;
  /// When a worker removed it from the queue. The queue deadline is
  /// evaluated submitted_at -> picked_at: time the SERVICE holds a
  /// picked request (e.g. an open batch window) never expires it.
  std::chrono::steady_clock::time_point picked_at;
  /// The service's pickup counter at picked_at (SolverStats::pickup_seq).
  uint64_t pickup_seq = 0;
  double deadline_ms = 0.0;  // resolved against the service default

  /// Solve or RR-block fetch. Fetches carry their payload in `fetch` and
  /// resolve `fetch_promise` instead of `promise` (request.engine is set
  /// to kRr so lane routing and batching predicates stay uniform).
  RequestKind kind = RequestKind::kSolve;
  RrFetchRequest fetch;
  std::promise<StatusOr<RrFetchResult>> fetch_promise;

  /// Absolute end-to-end expiry (request_deadline_ms resolved at Submit);
  /// a request picked past it is dropped at dequeue.
  std::optional<std::chrono::steady_clock::time_point> expires_at;

  /// Retry-with-backoff state (see LaneScheduler::Park): a transiently
  /// failed request is re-queued with a not-before time instead of
  /// blocking its worker slot in a sleep. The accumulated retry state
  /// rides along so the next pickup resumes where the attempt left off.
  std::chrono::steady_clock::time_point not_before{};
  uint32_t retries_used = 0;
  double next_backoff_ms = 0.0;
  std::vector<TopicId> dropped_so_far;
};

/// The lane/priority/deficit queue structure. Externally synchronized.
class LaneScheduler {
 public:
  explicit LaneScheduler(SchedulerOptions options);

  /// Enqueues by engine lane and priority (kFifo: one global FIFO).
  void Push(PendingRequest pending);

  /// True when Pop would return a request given the reservation state.
  bool HasEligible(bool wris_allowed) const;

  /// Deficit-RR pickup. Returns nullopt when nothing is eligible. While
  /// the slow lane holds work a reservation keeps off-limits, every pop
  /// that serves the fast lane instead counts one wris_deferral.
  std::optional<PendingRequest> Pop(bool wris_allowed);

  /// Removes up to max_mates queued kRr requests whose keyword sets share
  /// at least one topic with `head`, highest priority first, FIFO within a
  /// priority. kFifo mode never coalesces and returns empty.
  std::vector<PendingRequest> PopRrBatchMates(const Query& head,
                                              size_t max_mates);

  /// Parks a request until `pending.not_before` passes (retry backoff
  /// without a sleeping worker). Parked requests count toward size() —
  /// they are still owed a resolution — but are not eligible until
  /// PromoteReady moves them back into their lane.
  void Park(PendingRequest pending);

  /// Moves parked requests whose not_before has passed into their lanes.
  /// Returns how many were promoted.
  size_t PromoteReady(std::chrono::steady_clock::time_point now);

  /// Earliest not_before among parked requests (nullopt when none) — the
  /// worker wait loop's timed-wait deadline.
  std::optional<std::chrono::steady_clock::time_point> NextNotBefore() const;

  size_t parked_size() const { return parked_.size(); }

  /// Removes everything (shutdown: the service fails each promise),
  /// parked requests included.
  std::deque<PendingRequest> DrainAll();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t lane_size(EngineLane lane) const;

  /// Fast-lane pops made while reserved-out slow work waited.
  uint64_t wris_deferrals() const { return wris_deferrals_; }

  /// Feeds one measured service time (execution only, queueing excluded)
  /// into the lane's EWMA. No-op unless auto_tune_costs is set.
  void RecordServiceTime(EngineLane lane, double service_ms);

  /// Deficit cost charged per slow-lane pickup: the static wris_cost, or
  /// the EWMA-tuned ratio once auto-tuning is enabled and warm.
  uint32_t EffectiveWrisCost() const;

  /// Current per-lane service-time EWMA in ms (0 until a sample lands).
  double ServiceTimeEwmaMs(EngineLane lane) const;

  /// Service-time samples each lane needs before the tuned cost engages.
  static constexpr uint64_t kCostWarmupSamples = 8;

  const SchedulerOptions& options() const { return options_; }

 private:
  struct Lane {
    std::array<std::deque<PendingRequest>, kNumPriorities> by_priority;
    uint64_t deficit = 0;
    size_t size = 0;
  };

  PendingRequest PopFromLane(Lane& lane);

  SchedulerOptions options_;
  std::array<Lane, kNumLanes> lanes_;
  /// Requests waiting out a retry backoff (unordered; promotion scans).
  std::vector<PendingRequest> parked_;
  size_t cursor_ = 0;  // lane the deficit pickup examines first
  size_t size_ = 0;
  uint64_t wris_deferrals_ = 0;
  /// Per-lane service-time EWMA state (auto_tune_costs).
  double ewma_ms_[kNumLanes] = {0.0, 0.0};
  uint64_t ewma_samples_[kNumLanes] = {0, 0};
};

}  // namespace kbtim

#endif  // KBTIM_SERVING_LANE_SCHEDULER_H_
