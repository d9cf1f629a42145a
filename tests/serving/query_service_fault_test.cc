// Serving-tier resilience under injected storage faults: transient I/O
// errors are retried transparently, persistent single-keyword faults
// degrade multi-keyword queries instead of failing them, tripped breakers
// shed quarantined keywords in O(1) (no disk) and re-admit via half-open
// probes, and an 8-client chaos burst never crashes, never poisons the
// cache, and recovers to fault-free answers.
#include "serving/query_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "storage/crc32c.h"
#include "storage/io_counter.h"
#include "testing/scoped_fault_injection.h"

namespace kbtim {
namespace {

using testing::ScopedFaultInjection;

class QueryServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_service_fault_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "svcfault";
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
    ASSERT_TRUE(builder.Build(dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string IrrBasename(TopicId t) const {
    return std::filesystem::path(IrrFileName(dir_, t)).filename().string();
  }

  /// Deterministic service config: no prefetch pool (every fault happens
  /// on a foreground read the test controls), no retry/backoff sleeps.
  static QueryServiceOptions DeterministicOptions() {
    QueryServiceOptions opts;
    opts.num_workers = 1;
    opts.cache.prefetch_threads = 0;
    opts.failure.retry_backoff_ms = 0.0;
    opts.failure.breaker.backoff_ms = 0.0;
    return opts;
  }

  static ServiceRequest Irr(std::vector<TopicId> topics, uint32_t k = 6) {
    ServiceRequest request;
    request.query = Query{std::move(topics), k};
    request.engine = QueryEngine::kIrr;
    return request;
  }

  static void ExpectSameResult(const SeedSetResult& a,
                               const SeedSetResult& b) {
    ASSERT_EQ(a.seeds, b.seeds);
    ASSERT_DOUBLE_EQ(a.estimated_influence, b.estimated_influence);
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
};

TEST_F(QueryServiceFaultTest, TransientIoErrorRetriedTransparently) {
  auto service = QueryService::Create(dir_, DeterministicOptions());
  ASSERT_TRUE(service.ok());
  auto golden = (*service)->Execute(Irr({0}));
  ASSERT_TRUE(golden.ok()) << golden.status();
  (*service)->cache()->DropBlocks();  // next query goes back to disk

  {
    FaultPlan plan;  // exactly ONE fault: first attempt dies, retry lands
    plan.rules.push_back({IrrBasename(0), FaultOp::kRead,
                          FaultKind::kIOError, 0, /*max_faults=*/1, 1.0});
    ScopedFaultInjection inject(plan);
    auto retried = (*service)->Execute(Irr({0}));
    ASSERT_TRUE(retried.ok()) << retried.status();
    EXPECT_FALSE(retried->degraded);
    ExpectSameResult(*golden, *retried);
  }
  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.transient_retries, 1u);
  EXPECT_EQ(stats.retry_successes, 1u);
  EXPECT_EQ(stats.io_error_failures, 0u);  // the client never saw the fault
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.cache_io_errors, 1u);
  // One recorded failure, threshold 3: the domain never tripped.
  EXPECT_EQ(stats.breaker_opens, 0u);
}

TEST_F(QueryServiceFaultTest, SickKeywordDegradesThenQuarantineSheds) {
  QueryServiceOptions opts = DeterministicOptions();
  // A tripped domain stays quarantined for the whole test (no probe).
  opts.failure.breaker.backoff_ms = 60000.0;
  auto service = QueryService::Create(dir_, opts);
  ASSERT_TRUE(service.ok());
  auto golden_healthy = (*service)->Execute(Irr({1}));
  ASSERT_TRUE(golden_healthy.ok());
  (*service)->cache()->DropBlocks();

  FaultPlan plan;  // keyword 0's file is persistently dead
  plan.rules.push_back({IrrBasename(0), FaultOp::kRead, FaultKind::kIOError,
                        0, /*max_faults=*/0, 1.0});
  ScopedFaultInjection inject(plan);

  // Multi-keyword query: retries exhaust on keyword 0 (the culprit), the
  // query degrades to the healthy remainder instead of failing.
  auto degraded = (*service)->Execute(Irr({0, 1}));
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->dropped_keywords, std::vector<TopicId>{0});
  ExpectSameResult(*golden_healthy, *degraded);
  {
    const ServiceStats stats = (*service)->stats();
    EXPECT_EQ(stats.transient_retries, 2u);  // io_retries, all burned
    EXPECT_EQ(stats.degraded_results, 1u);
    EXPECT_EQ(stats.failed, 0u);
    // Three consecutive failed attempts tripped keyword 0's breaker.
    EXPECT_EQ(stats.breaker_opens, 1u);
  }

  // Single-keyword query on the quarantined topic: shed in O(1) — answer
  // is kUnavailable and the disk is NEVER touched.
  IoCounter::Reset();
  const IoStats before = IoCounter::Snapshot();
  auto shed = (*service)->Execute(Irr({0}));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  const IoStats delta = IoCounter::Snapshot() - before;
  EXPECT_EQ(delta.read_ops, 0u);

  // Multi-keyword again: quarantine screening drops keyword 0 BEFORE any
  // engine attempt — no retries burned this time, same degraded answer.
  auto screened = (*service)->Execute(Irr({0, 1}));
  ASSERT_TRUE(screened.ok());
  EXPECT_TRUE(screened->degraded);
  EXPECT_EQ(screened->dropped_keywords, std::vector<TopicId>{0});
  const ServiceStats stats = (*service)->stats();
  EXPECT_GE(stats.quarantine_rejections, 1u);
  EXPECT_EQ(stats.transient_retries, 2u);  // unchanged
  EXPECT_EQ(stats.degraded_results, 2u);
}

TEST_F(QueryServiceFaultTest, BreakerReAdmitsAfterSuccessfulProbe) {
  QueryServiceOptions opts = DeterministicOptions();
  opts.failure.breaker.failure_threshold = 1;
  opts.failure.io_retries = 0;       // fail fast: one attempt trips it
  opts.failure.partial_results = false;
  auto service = QueryService::Create(dir_, opts);
  ASSERT_TRUE(service.ok());
  auto golden = (*service)->Execute(Irr({0}));
  ASSERT_TRUE(golden.ok());
  (*service)->cache()->DropBlocks();

  {
    FaultPlan plan;
    plan.rules.push_back({IrrBasename(0), FaultOp::kRead,
                          FaultKind::kIOError, 0, 0, 1.0});
    ScopedFaultInjection inject(plan);
    auto failed = (*service)->Execute(Irr({0}));
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsIOError());
  }

  // Fault gone, backoff 0: the next request is the half-open probe; its
  // success closes the breaker and the answer is exactly fault-free.
  auto probed = (*service)->Execute(Irr({0}));
  ASSERT_TRUE(probed.ok()) << probed.status();
  ExpectSameResult(*golden, *probed);
  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.io_error_failures, 1u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_closes, 1u);
}

TEST_F(QueryServiceFaultTest, ThetaBelowTheMetaDegradesToHealthyKeywords) {
  // irr_0.dat claims 10 RR sets where the meta records θ_0, behind resealed
  // checksums. The cache refuses the preamble as corrupt and names topic
  // 0, so queries drop it instead of failing and topic 1 stays answerable.
  auto meta = ReadIndexMeta(MetaFileName(dir_));
  ASSERT_TRUE(meta.ok()) << meta.status();
  ASSERT_GT(meta->topics[0].theta, 10u);
  const uint64_t preamble = meta->topics[0].irr_preamble;
  const std::string path = IrrFileName(dir_, 0);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto put = [&bytes](uint64_t offset, auto v) {
    std::memcpy(bytes.data() + offset, &v, sizeof(v));
  };
  auto masked_crc = [&bytes](uint64_t end) {
    return crc32c::Mask(crc32c::Value(bytes.data(), end));
  };
  put(29, uint64_t{10});                      // header theta
  put(37, masked_crc(37));                    // header CRC
  put(preamble - 4, masked_crc(preamble - 4));  // preamble CRC
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  QueryServiceOptions opts = DeterministicOptions();
  opts.failure.breaker.backoff_ms = 60000.0;  // no half-open probe
  auto service = QueryService::Create(dir_, opts);
  ASSERT_TRUE(service.ok());
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto degraded = (*service)->Execute(Irr({0, 1}));
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    EXPECT_TRUE(degraded->degraded);
    EXPECT_EQ(degraded->dropped_keywords, std::vector<TopicId>{0});
  }
  auto healthy = (*service)->Execute(Irr({1}));
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_FALSE(healthy->degraded);
  const ServiceStats stats = (*service)->stats();
  // Each of the first three queries invalidated topic 0 and fed its
  // breaker; the third tripped it, and the fourth was screened.
  EXPECT_EQ(stats.cache_topic_invalidations, 3u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.degraded_results, 4u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(QueryServiceFaultTest, ChaosBurstSurvivesAndRecovers) {
  QueryServiceOptions opts;
  opts.num_workers = 4;
  opts.max_pending = 256;
  opts.failure.retry_backoff_ms = 0.0;
  opts.failure.breaker.backoff_ms = 0.0;  // probes re-admit immediately
  auto service = QueryService::Create(dir_, opts);
  ASSERT_TRUE(service.ok());

  // Fault-free goldens per topic, and a warm-up of every engine.
  std::vector<SeedSetResult> goldens;
  for (TopicId t = 0; t < 5; ++t) {
    auto r = (*service)->Execute(Irr({t}));
    ASSERT_TRUE(r.ok()) << r.status();
    goldens.push_back(std::move(*r));
  }

  {
    FaultPlan plan;  // a burst: flaky reads on two topics, rare bit flips
    plan.seed = 1234;
    plan.rules.push_back({IrrBasename(0), FaultOp::kRead,
                          FaultKind::kIOError, 0, 0, /*probability=*/0.3});
    plan.rules.push_back({IrrBasename(2), FaultOp::kRead,
                          FaultKind::kIOError, 0, 0, 0.3});
    plan.rules.push_back({IrrBasename(3), FaultOp::kRead,
                          FaultKind::kBitFlip, 0, 0, 0.05});
    ScopedFaultInjection inject(plan);
    (*service)->cache()->DropBlocks();

    std::atomic<uint64_t> ok_count{0}, degraded_count{0}, failed_count{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 20; ++i) {
          ServiceRequest request = Irr(
              {static_cast<TopicId>((c + i) % 5),
               static_cast<TopicId>((c + i + 1) % 5)});
          if ((c + i) % 3 == 0) request.engine = QueryEngine::kRr;
          auto result = (*service)->Execute(std::move(request));
          if (!result.ok()) {
            ++failed_count;
          } else if (result->degraded) {
            ++degraded_count;
          } else {
            ++ok_count;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    // No crash, and every request resolved one way or the other.
    EXPECT_EQ(ok_count + degraded_count + failed_count, 160u);
    const ServiceStats mid = (*service)->stats();
    EXPECT_EQ(mid.submitted, mid.completed + mid.failed +
                                 mid.admission_drops + mid.deadline_drops);
  }

  // Burst over: drop cached state, then every topic must answer exactly
  // its fault-free golden — nothing the burst corrupted was retained, and
  // tripped breakers re-admit via their (zero-backoff) probes.
  (*service)->cache()->DropBlocks();
  for (TopicId t = 0; t < 5; ++t) {
    auto recovered = (*service)->Execute(Irr({t}));
    ASSERT_TRUE(recovered.ok()) << "topic " << t << ": "
                                << recovered.status();
    EXPECT_FALSE(recovered->degraded);
    ExpectSameResult(goldens[t], *recovered);
  }
  const ServiceStats stats = (*service)->stats();
  EXPECT_GE(stats.cache_io_errors, 1u);  // the burst really happened
}

}  // namespace
}  // namespace kbtim
