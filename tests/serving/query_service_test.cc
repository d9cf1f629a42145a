// Functional contract of the QueryService: every engine answers exactly
// like a direct handle, admission control and queue deadlines drop
// deterministically, per-request θ budgets reject/clamp, Pause/Drain/
// shutdown lifecycle is safe, and ServiceStats accounting is exact.
#include "serving/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "testing/fixtures.h"

namespace kbtim {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_service_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "service";
    spec.graph.num_vertices = 1000;
    spec.graph.avg_degree = 5.0;
    spec.graph.num_communities = 5;
    spec.graph.seed = 91;
    spec.profiles.num_topics = 5;
    spec.profiles.seed = 92;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 12;
    opts.partition_size = 20;
    opts.num_threads = 2;
    opts.seed = 93;
    opts.max_theta_per_keyword = 20000;
    opts.opt_estimate.pilot_initial = 512;
    IndexBuilder builder(env_->graph(), env_->tfidf(),
                         env_->weights(opts.model), opts);
    auto report = builder.Build(dir_);
    ASSERT_TRUE(report.ok()) << report.status();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  QueryService::OnlineBackend Backend() const {
    QueryService::OnlineBackend online;
    online.graph = &env_->graph();
    online.tfidf = &env_->tfidf();
    online.model = PropagationModel::kIndependentCascade;
    online.in_edge_weights = &env_->ic_probs();
    return online;
  }

  static OnlineSolverOptions WrisOptions() {
    OnlineSolverOptions wris;
    wris.epsilon = 0.5;
    wris.num_threads = 1;
    wris.seed = 321;
    wris.max_theta = 4000;
    wris.opt_estimate.pilot_initial = 256;
    return wris;
  }

  static void ExpectSameResult(const SeedSetResult& a,
                               const SeedSetResult& b) {
    ASSERT_EQ(a.seeds, b.seeds);
    ASSERT_DOUBLE_EQ(a.estimated_influence, b.estimated_influence);
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
};

TEST_F(QueryServiceTest, AllEnginesMatchDirectHandles) {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.wris = WrisOptions();
  auto service_or = QueryService::Create(dir_, options, Backend());
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto& service = *service_or;

  const Query q{{0, 2}, 8};
  auto irr = IrrIndex::Open(dir_);
  auto rr = RrIndex::Open(dir_);
  ASSERT_TRUE(irr.ok());
  ASSERT_TRUE(rr.ok());
  WrisSolver wris(env_->graph(), env_->tfidf(),
                  PropagationModel::kIndependentCascade, env_->ic_probs(),
                  WrisOptions());

  auto want_irr = irr->Query(q);
  auto want_rr = rr->Query(q);
  auto want_wris = wris.Solve(q);
  ASSERT_TRUE(want_irr.ok());
  ASSERT_TRUE(want_rr.ok());
  ASSERT_TRUE(want_wris.ok());

  for (IrrQueryMode mode : {IrrQueryMode::kLazy, IrrQueryMode::kEager}) {
    ServiceRequest request{q, QueryEngine::kIrr, mode};
    auto got = service->Execute(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResult(*want_irr, *got);
  }
  auto got_rr = service->Execute({q, QueryEngine::kRr});
  ASSERT_TRUE(got_rr.ok());
  ExpectSameResult(*want_rr, *got_rr);
  auto got_wris = service->Execute({q, QueryEngine::kWris});
  ASSERT_TRUE(got_wris.ok());
  ExpectSameResult(*want_wris, *got_wris);

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.irr_queries, 2u);
  EXPECT_EQ(stats.rr_queries, 1u);
  EXPECT_EQ(stats.wris_queries, 1u);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
}

TEST_F(QueryServiceTest, AdmissionControlRejectsWhenQueueIsFull) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_pending = 3;
  options.start_paused = true;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  const Query q{{0, 1}, 5};
  std::vector<std::future<StatusOr<SeedSetResult>>> accepted;
  for (int i = 0; i < 3; ++i) {
    accepted.push_back(service->Submit({q, QueryEngine::kIrr}));
  }
  EXPECT_EQ(service->pending(), 3u);

  // Paused workers: the 4th submit must bounce immediately.
  auto rejected = service->Submit({q, QueryEngine::kIrr});
  auto status = rejected.get();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.status().IsUnavailable()) << status.status();

  service->Resume();
  service->Drain();
  for (auto& future : accepted) {
    auto result = future.get();
    EXPECT_TRUE(result.ok()) << result.status();
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admission_drops, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.queue_peak, 3u);
}

TEST_F(QueryServiceTest, QueueDeadlineDropsStaleRequests) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  ServiceRequest stale{{{0, 1}, 5}, QueryEngine::kIrr};
  stale.queue_deadline_ms = 0.5;
  ServiceRequest fresh{{{0, 1}, 5}, QueryEngine::kIrr};  // no deadline
  auto stale_future = service->Submit(stale);
  auto fresh_future = service->Submit(fresh);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->Resume();

  auto dropped = stale_future.get();
  ASSERT_FALSE(dropped.ok());
  EXPECT_TRUE(dropped.status().IsDeadlineExceeded()) << dropped.status();
  auto served = fresh_future.get();
  EXPECT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(service->stats().deadline_drops, 1u);
}

TEST_F(QueryServiceTest, ThetaBudgetRejectsExpensiveIndexQueries) {
  auto service_or = QueryService::Create(dir_);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  ServiceRequest request{{{0, 2}, 8}, QueryEngine::kIrr};
  request.max_theta = 1;  // no real query fits one RR set
  auto rejected = service->Execute(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition)
      << rejected.status();

  request.max_theta = uint64_t{1} << 40;
  auto served = service->Execute(request);
  EXPECT_TRUE(served.ok()) << served.status();
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(QueryServiceTest, WrisThetaBudgetClampsSampleCount) {
  QueryServiceOptions options;
  options.wris = WrisOptions();
  auto service_or = QueryService::Create(dir_, options, Backend());
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  ServiceRequest request{{{1, 3}, 6}, QueryEngine::kWris};
  request.max_theta = 64;
  auto result = service->Execute(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->stats.theta, 64u);
  EXPECT_LE(result->stats.rr_sets_loaded, 64u);
}

TEST_F(QueryServiceTest, WrisWithoutBackendFailsCleanly) {
  auto service_or = QueryService::Create(dir_);
  ASSERT_TRUE(service_or.ok());
  auto result = (*service_or)->Execute({{{0}, 4}, QueryEngine::kWris});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryServiceTest, ShutdownFailsQueuedRequestsWithUnavailable) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());

  // Every lane and priority must be failed on shutdown, not just one.
  const QueryEngine engines[] = {QueryEngine::kIrr, QueryEngine::kRr,
                                 QueryEngine::kWris, QueryEngine::kIrr};
  const RequestPriority priorities[] = {
      RequestPriority::kLow, RequestPriority::kNormal,
      RequestPriority::kNormal, RequestPriority::kHigh};
  std::vector<std::future<StatusOr<SeedSetResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest request{{{0, 1}, 5}, engines[i]};
    request.priority = priorities[i];
    futures.push_back((*service_or)->Submit(std::move(request)));
  }
  service_or->reset();  // destroy with everything still queued
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  }
}

TEST_F(QueryServiceTest, DrainWhilePausedDrainsThrough) {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.start_paused = true;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  std::vector<std::future<StatusOr<SeedSetResult>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service->Submit({{{0, 1}, 5}, QueryEngine::kIrr}));
  }
  EXPECT_EQ(service->pending(), 6u);

  // Regression: before PR 4 this deadlocked — paused workers never drained
  // the queue, so Drain's idle condition could not fire.
  service->Drain();
  EXPECT_EQ(service->pending(), 0u);
  for (auto& future : futures) {
    auto result = future.get();
    EXPECT_TRUE(result.ok()) << result.status();
  }

  // The pause itself survives the drain: new work queues without running.
  auto queued = service->Submit({{{0, 1}, 5}, QueryEngine::kIrr});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service->pending(), 1u);
  service->Resume();
  EXPECT_TRUE(queued.get().ok());
}

TEST_F(QueryServiceTest, HighPriorityOvertakesQueuedLowWithinLane) {
  QueryServiceOptions options;
  options.num_workers = 1;  // single dispatcher: pickup order is visible
  options.start_paused = true;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  const Query q{{0, 1}, 5};
  constexpr int kLow = 6;
  std::vector<std::future<StatusOr<SeedSetResult>>> low_futures;
  for (int i = 0; i < kLow; ++i) {
    ServiceRequest low{q, QueryEngine::kIrr};
    low.priority = RequestPriority::kLow;
    low_futures.push_back(service->Submit(std::move(low)));
  }
  ServiceRequest high{q, QueryEngine::kIrr};
  high.priority = RequestPriority::kHigh;
  auto high_future = service->Submit(std::move(high));  // submitted LAST

  service->Resume();
  // Pickup order is recorded by the service itself: FIFO would pick the
  // high-priority request LAST; the priority lane must pick it before
  // every queued low one.
  StatusOr<SeedSetResult> high_result = high_future.get();
  ASSERT_TRUE(high_result.ok()) << high_result.status();
  const uint64_t high_seq = high_result->stats.pickup_seq;
  EXPECT_GT(high_seq, 0u);
  for (auto& future : low_futures) {
    StatusOr<SeedSetResult> low = future.get();
    ASSERT_TRUE(low.ok()) << low.status();
    EXPECT_LT(high_seq, low->stats.pickup_seq);
  }
}

TEST_F(QueryServiceTest, BatchWindowHoldDoesNotExpireQueueDeadline) {
  // Regression: the deadline is a QUEUE-wait budget, judged up to the
  // moment a worker picks the request. A batch window the service itself
  // holds a picked request open for must not deadline-drop it.
  QueryServiceOptions options;
  options.num_workers = 1;
  options.scheduler.rr_max_batch = 8;
  options.scheduler.rr_batch_window_ms = 50.0;  // far past the deadline
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());

  ServiceRequest request{{{0, 1}, 5}, QueryEngine::kRr};
  request.queue_deadline_ms = 5.0;  // picked ~immediately on idle service
  auto result = (*service_or)->Execute(std::move(request));
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST_F(QueryServiceTest, BatchWindowStopsCollectingWhenPaused) {
  // Regression: a worker holding a batch window open across a Pause()
  // must not keep pulling newly submitted requests into the batch —
  // Pause means queued work does not START.
  QueryServiceOptions options;
  options.num_workers = 1;
  options.scheduler.rr_max_batch = 8;
  options.scheduler.rr_batch_window_ms = 400.0;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  const Query q{{0, 1}, 5};
  auto head = service->Submit({q, QueryEngine::kRr});
  // Wait until the worker picked the head (queue empties) and is sitting
  // in its batch window.
  for (int i = 0; i < 400 && service->pending() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service->pending(), 0u);
  service->Pause();
  auto late = service->Submit({q, QueryEngine::kRr});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The late request must still be queued, not coalesced mid-pause.
  EXPECT_EQ(service->pending(), 1u);
  EXPECT_TRUE(head.get().ok());  // head dispatches alone at window close
  service->Resume();
  EXPECT_TRUE(late.get().ok());
}

TEST_F(QueryServiceTest, CoalescedRrBatchMatchesSingleExecution) {
  QueryServiceOptions options;
  options.num_workers = 1;  // one dispatcher => one deterministic batch
  options.start_paused = true;
  options.scheduler.rr_max_batch = 8;
  auto service_or = QueryService::Create(dir_, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  // All four share a keyword with the head request {0,1}.
  const std::vector<Query> queries = {
      {{0, 1}, 5}, {{1, 2}, 8}, {{0, 2}, 6}, {{1}, 4}};
  auto rr = RrIndex::Open(dir_);
  ASSERT_TRUE(rr.ok());
  std::vector<SeedSetResult> golden;
  for (const Query& q : queries) {
    auto want = rr->Query(q);
    ASSERT_TRUE(want.ok());
    golden.push_back(std::move(*want));
  }

  std::vector<std::future<StatusOr<SeedSetResult>>> futures;
  for (const Query& q : queries) {
    futures.push_back(service->Submit({q, QueryEngine::kRr}));
  }
  service->Resume();
  service->Drain();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSameResult(golden[i], *result);
    EXPECT_EQ(result->stats.batch_size, queries.size());
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.rr_queries, queries.size());
  EXPECT_EQ(stats.rr_batches, 1u);
  EXPECT_EQ(stats.rr_batched_queries, queries.size());
}

TEST_F(QueryServiceTest, SharedCacheWarmsAcrossEnginesAndClients) {
  auto cache_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(cache_or.ok());
  QueryServiceOptions options;
  options.num_workers = 2;
  auto service_or = QueryService::Create(*cache_or, options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  const Query q{{2, 3}, 7};
  ASSERT_TRUE(service->Execute({q, QueryEngine::kIrr}).ok());
  ASSERT_TRUE(service->Execute({q, QueryEngine::kRr}).ok());
  (*cache_or)->WaitForPrefetches();

  // Everything the repeat queries touch is resident in the shared cache.
  auto warm_irr = service->Execute({q, QueryEngine::kIrr});
  auto warm_rr = service->Execute({q, QueryEngine::kRr});
  ASSERT_TRUE(warm_irr.ok());
  ASSERT_TRUE(warm_rr.ok());
  EXPECT_EQ(warm_irr->stats.cache_misses, 0u);
  EXPECT_EQ(warm_rr->stats.cache_misses, 0u);
  EXPECT_EQ(warm_irr->stats.io_reads, 0u);
  EXPECT_EQ(warm_rr->stats.io_reads, 0u);
  const ServiceStats stats = service->stats();
  EXPECT_GT(stats.cache_hit_rate, 0.0);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST_F(QueryServiceTest, AutoTunedWrisCostTracksMeasuredServiceTimes) {
  // End-to-end wiring of the EWMA cost loop: execute enough index + WRIS
  // requests to warm both lane EWMAs (kCostWarmupSamples each) and the
  // snapshot must expose positive per-lane EWMAs with the effective cost
  // derived from their ratio — no longer pinned to the static wris_cost.
  QueryServiceOptions options;
  options.num_workers = 1;  // serialize so per-pickup timings are clean
  options.wris = WrisOptions();
  options.scheduler.auto_tune_costs = true;
  options.scheduler.wris_cost = 77;  // sentinel: must be replaced
  options.scheduler.rr_max_batch = 1;  // one pickup = one sample
  auto service_or = QueryService::Create(dir_, options, Backend());
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  QueryService& service = **service_or;

  const Query q{{0, 2}, 5};
  for (uint64_t i = 0; i < LaneScheduler::kCostWarmupSamples; ++i) {
    ASSERT_TRUE(service.Execute({q, QueryEngine::kIrr}).ok());
    ASSERT_TRUE(service.Execute({q, QueryEngine::kWris}).ok());
  }
  // Execute resolves the promise before the worker re-locks to record its
  // service time; Drain synchronizes with that critical section so the
  // snapshot sees all kCostWarmupSamples samples.
  service.Drain();
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.fast_service_ewma_ms, 0.0);
  EXPECT_GT(stats.slow_service_ewma_ms, 0.0);
  EXPECT_GE(stats.wris_cost_effective, 1u);
  // The tuned charge must equal the documented clamped ratio (a warm
  // EWMA never reports the static sentinel unless the ratio lands there).
  const double ratio =
      stats.slow_service_ewma_ms / stats.fast_service_ewma_ms;
  const auto want = static_cast<uint32_t>(std::max(
      1.0, std::min(ratio + 0.5,
                    static_cast<double>(options.scheduler.max_auto_cost))));
  EXPECT_EQ(stats.wris_cost_effective, want);

  // Auto-tuning off: the static cost is reported untouched.
  QueryServiceOptions static_options;
  static_options.num_workers = 1;
  static_options.wris = WrisOptions();
  static_options.scheduler.wris_cost = 77;
  auto static_service = QueryService::Create(dir_, static_options,
                                             Backend());
  ASSERT_TRUE(static_service.ok());
  ASSERT_TRUE((*static_service)->Execute({q, QueryEngine::kWris}).ok());
  EXPECT_EQ((*static_service)->stats().wris_cost_effective, 77u);
}

}  // namespace
}  // namespace kbtim
