// Golden determinism: one fixed seed must produce the IDENTICAL seed set
// end-to-end no matter how the work is scheduled — WRIS solver thread
// counts {1, 2, 8} (per-RR-set RNG streams make sampling partition-
// invariant), lazy vs. eager IRR query mode, warm vs. cold keyword cache,
// prefetch on/off, and across index handles. Concurrency must only ever
// change WHEN work happens, never WHAT a query answers.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "propagation/rr_sampler.h"
#include "sampling/ris_solver.h"
#include "sampling/wris_solver.h"
#include "serving/query_service.h"
#include "testing/scoped_fault_injection.h"
#include "testing/scoped_skip_sampling.h"

namespace kbtim {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_determinism_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "determinism";
    spec.graph.num_vertices = 1200;
    spec.graph.avg_degree = 5.0;
    spec.graph.num_communities = 6;
    spec.graph.seed = 371;
    spec.profiles.num_topics = 5;
    spec.profiles.seed = 372;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 12;
    opts.partition_size = 20;
    opts.num_threads = 2;
    opts.seed = 373;
    opts.max_theta_per_keyword = 20000;
    opts.opt_estimate.pilot_initial = 512;
    IndexBuilder builder(env_->graph(), env_->tfidf(),
                         env_->weights(opts.model), opts);
    auto report = builder.Build(dir_);
    ASSERT_TRUE(report.ok()) << report.status();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void ExpectIdentical(const SeedSetResult& want,
                              const SeedSetResult& got,
                              const std::string& label) {
    ASSERT_EQ(want.seeds, got.seeds) << label;
    ASSERT_EQ(want.marginal_gains.size(), got.marginal_gains.size())
        << label;
    for (size_t i = 0; i < want.marginal_gains.size(); ++i) {
      ASSERT_DOUBLE_EQ(want.marginal_gains[i], got.marginal_gains[i])
          << label << " gain " << i;
    }
    ASSERT_DOUBLE_EQ(want.estimated_influence, got.estimated_influence)
        << label;
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
};

TEST_F(DeterminismTest, WrisSeedSetIsIdenticalAcrossThreadCounts) {
  // PR 5 adds the kernel axis: skip-ahead and scalar sampling consume the
  // RNG stream differently, so each setting pins its OWN golden — but
  // within a setting the seed set must be identical for every thread
  // count.
  const std::vector<Query> queries = {{{0, 2}, 8}, {{1, 3, 4}, 5},
                                      {{2}, 10}};
  for (const bool skip : {true, false}) {
    testing::ScopedSkipSampling scoped(skip);
    for (const Query& q : queries) {
      std::optional<SeedSetResult> reference;
      for (uint32_t threads : {1u, 2u, 8u}) {
        OnlineSolverOptions options;
        options.epsilon = 0.5;
        options.num_threads = threads;
        options.seed = 2024;
        options.max_theta = 3000;
        options.opt_estimate.pilot_initial = 256;
        WrisSolver solver(env_->graph(), env_->tfidf(),
                          PropagationModel::kIndependentCascade,
                          env_->ic_probs(), options);
        auto result = solver.Solve(q);
        ASSERT_TRUE(result.ok()) << result.status();
        if (!reference.has_value()) {
          reference = std::move(*result);
          continue;
        }
        // θ itself must agree (the pilot runs single-threaded), and so
        // must every selected seed and every marginal gain.
        ASSERT_EQ(reference->stats.theta, result->stats.theta);
        ExpectIdentical(*reference, *result,
                        std::string(skip ? "skip" : "scalar") +
                            " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST_F(DeterminismTest, WrisLtSeedSetIsIdenticalAcrossThreadCounts) {
  // The LT engine walks through the lazily built shared alias tables —
  // per-RR-set streams and the tid-ordered merge must pin LT solves
  // exactly like IC ones, under both kernels.
  const Query q{{1, 2}, 6};
  for (const bool skip : {true, false}) {
    testing::ScopedSkipSampling scoped(skip);
    std::optional<SeedSetResult> reference;
    for (uint32_t threads : {1u, 2u, 8u}) {
      OnlineSolverOptions options;
      options.epsilon = 0.5;
      options.num_threads = threads;
      options.seed = 4242;
      options.max_theta = 3000;
      options.opt_estimate.pilot_initial = 256;
      WrisSolver solver(env_->graph(), env_->tfidf(),
                        PropagationModel::kLinearThreshold,
                        env_->lt_weights(), options);
      auto result = solver.Solve(q);
      ASSERT_TRUE(result.ok()) << result.status();
      if (!reference.has_value()) {
        reference = std::move(*result);
        continue;
      }
      ASSERT_EQ(reference->stats.theta, result->stats.theta);
      ExpectIdentical(*reference, *result,
                      std::string(skip ? "lt skip" : "lt scalar") +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(DeterminismTest, RisSeedSetIsIdenticalAcrossThreadCounts) {
  // The untargeted RIS solver shares OnlineSolverOptions (and its seed
  // contract), so it must be thread-count invariant too — per kernel.
  for (const bool skip : {true, false}) {
    testing::ScopedSkipSampling scoped(skip);
    std::optional<SeedSetResult> reference;
    for (uint32_t threads : {1u, 2u, 8u}) {
      OnlineSolverOptions options;
      options.epsilon = 0.5;
      options.num_threads = threads;
      options.seed = 1234;
      options.max_theta = 2000;
      options.opt_estimate.pilot_initial = 256;
      RisSolver solver(env_->graph(), PropagationModel::kIndependentCascade,
                       env_->ic_probs(), options);
      auto result = solver.Solve(10);
      ASSERT_TRUE(result.ok()) << result.status();
      if (!reference.has_value()) {
        reference = std::move(*result);
        continue;
      }
      ASSERT_EQ(reference->stats.theta, result->stats.theta);
      ExpectIdentical(*reference, *result,
                      std::string(skip ? "RIS skip" : "RIS scalar") +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(DeterminismTest, WrisRepeatSolvesOnOneSolverAreIdentical) {
  // Slot scratch reuse across a query stream must not leak state between
  // solves: the 3rd identical solve equals the 1st, with other queries
  // interleaved between them.
  OnlineSolverOptions options;
  options.epsilon = 0.5;
  options.num_threads = 2;
  options.seed = 777;
  options.max_theta = 3000;
  options.opt_estimate.pilot_initial = 256;
  WrisSolver solver(env_->graph(), env_->tfidf(),
                    PropagationModel::kIndependentCascade, env_->ic_probs(),
                    options);
  const Query q{{0, 4}, 7};
  auto first = solver.Solve(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(solver.Solve({{1, 2}, 12}).ok());  // interleaved other query
  ASSERT_TRUE(solver.Solve({{3}, 3}).ok());
  auto again = solver.Solve(q);
  ASSERT_TRUE(again.ok());
  ExpectIdentical(*first, *again, "repeat solve");
}

TEST_F(DeterminismTest, IndexAnswersAreInvariantToCacheConfiguration) {
  const std::vector<Query> queries = {{{0, 2}, 8}, {{1, 3}, 6},
                                      {{0, 1, 4}, 12}};

  // Reference: cold cache, no prefetch.
  KeywordCacheOptions reference_options;
  reference_options.prefetch_threads = 0;
  auto reference_irr = IrrIndex::Open(dir_, reference_options);
  auto reference_rr = RrIndex::Open(dir_);
  ASSERT_TRUE(reference_irr.ok());
  ASSERT_TRUE(reference_rr.ok());

  struct CacheConfig {
    const char* name;
    uint32_t prefetch_threads;
  };
  const CacheConfig configs[] = {
      {"no_prefetch", 0},
      {"prefetch", 2},
  };
  for (const Query& q : queries) {
    auto want = reference_irr->Query(q);
    auto want_rr = reference_rr->Query(q);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(want_rr.ok());
    // Theorem 3: both index paths agree before we vary the cache.
    ExpectIdentical(*want, *want_rr, "irr vs rr");
    for (const CacheConfig& config : configs) {
      KeywordCacheOptions options;
      options.prefetch_threads = config.prefetch_threads;
      auto irr = IrrIndex::Open(dir_, options);
      ASSERT_TRUE(irr.ok());
      for (IrrQueryMode mode :
           {IrrQueryMode::kLazy, IrrQueryMode::kEager}) {
        // Cold pass (fresh handle), then warm pass through the same
        // cache: every answer must be identical to the reference.
        const std::string label =
            std::string(config.name) +
            (mode == IrrQueryMode::kLazy ? " lazy" : " eager");
        auto cold = irr->Query(q, mode);
        ASSERT_TRUE(cold.ok()) << cold.status();
        auto warm = irr->Query(q, mode);
        ASSERT_TRUE(warm.ok());
        ExpectIdentical(*want, *cold, label + " cold");
        ExpectIdentical(*want, *warm, label + " warm");
      }
    }
  }
}

TEST_F(DeterminismTest, FaultScheduleReplaysIdenticallyAcrossWorkerCounts) {
  // PR 6 axis: a seeded fault schedule replayed against a serial request
  // stream must produce the IDENTICAL per-query transcript (seeds,
  // degradation, error codes) and the IDENTICAL fault counters no matter
  // how many service workers exist. Requests are Execute()d one at a
  // time, prefetching is off, and every backoff is 0, so wall-clock never
  // enters the transcript — worker count may only change WHERE a request
  // runs, never WHAT happens to it.
  const std::string irr0 =
      std::filesystem::path(IrrFileName(dir_, 0)).filename().string();
  const std::string irr3 =
      std::filesystem::path(IrrFileName(dir_, 3)).filename().string();

  struct QueryOutcome {
    StatusCode code;
    std::vector<VertexId> seeds;
    bool degraded;
    std::vector<TopicId> dropped;

    bool operator==(const QueryOutcome& other) const {
      return code == other.code && seeds == other.seeds &&
             degraded == other.degraded && dropped == other.dropped;
    }
  };
  struct RunTranscript {
    std::vector<QueryOutcome> outcomes;
    uint64_t transient_retries, retry_successes, degraded_results;
    uint64_t io_error_failures, quarantine_rejections;
    uint64_t breaker_opens, breaker_probes, breaker_closes;
    uint64_t cache_io_errors, injector_faults;
  };

  auto run = [&](uint32_t workers) -> RunTranscript {
    FaultPlan plan;  // Arm() resets the per-rule op counters + coins
    plan.seed = 606;
    // A dead window early in keyword 0's stream, then recovery...
    plan.rules.push_back({irr0, FaultOp::kRead, FaultKind::kIOError,
                          /*first_op=*/2, /*max_faults=*/8, 1.0});
    // ...and seeded flaky reads on keyword 3 for the whole run.
    plan.rules.push_back({irr3, FaultOp::kRead, FaultKind::kIOError,
                          0, /*max_faults=*/0, /*probability=*/0.5});
    testing::ScopedFaultInjection inject(plan);

    QueryServiceOptions opts;
    opts.num_workers = workers;
    opts.cache.prefetch_threads = 0;
    opts.failure.retry_backoff_ms = 0.0;
    opts.failure.breaker.backoff_ms = 0.0;
    opts.failure.breaker.failure_threshold = 2;
    auto service = QueryService::Create(dir_, opts);
    EXPECT_TRUE(service.ok());

    const std::vector<Query> stream = {
        {{0}, 6},    {{0, 1}, 6}, {{3}, 8},    {{2, 3}, 6}, {{0}, 6},
        {{3, 4}, 5}, {{1, 2}, 8}, {{0, 3}, 6}, {{3}, 8},    {{0}, 6},
    };
    RunTranscript transcript;
    for (const Query& q : stream) {
      ServiceRequest request;
      request.query = q;
      request.engine = QueryEngine::kIrr;
      auto result = (*service)->Execute(std::move(request));
      QueryOutcome outcome;
      outcome.code = result.status().code();
      if (result.ok()) {
        outcome.seeds = result->seeds;
        outcome.degraded = result->degraded;
        outcome.dropped = result->dropped_keywords;
      } else {
        outcome.degraded = false;
      }
      transcript.outcomes.push_back(std::move(outcome));
    }
    const ServiceStats stats = (*service)->stats();
    transcript.transient_retries = stats.transient_retries;
    transcript.retry_successes = stats.retry_successes;
    transcript.degraded_results = stats.degraded_results;
    transcript.io_error_failures = stats.io_error_failures;
    transcript.quarantine_rejections = stats.quarantine_rejections;
    transcript.breaker_opens = stats.breaker_opens;
    transcript.breaker_probes = stats.breaker_probes;
    transcript.breaker_closes = stats.breaker_closes;
    transcript.cache_io_errors = stats.cache_io_errors;
    transcript.injector_faults =
        FaultInjector::Instance().stats().total_faults();
    return transcript;
  };

  const RunTranscript reference = run(1);
  // The schedule genuinely fired and genuinely disrupted the stream.
  ASSERT_GT(reference.injector_faults, 0u);
  ASSERT_GT(reference.transient_retries, 0u);
  for (uint32_t workers : {2u, 8u}) {
    const RunTranscript got = run(workers);
    const std::string label = "workers=" + std::to_string(workers);
    ASSERT_EQ(reference.outcomes.size(), got.outcomes.size()) << label;
    for (size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_TRUE(reference.outcomes[i] == got.outcomes[i])
          << label << " query " << i;
    }
    EXPECT_EQ(reference.transient_retries, got.transient_retries) << label;
    EXPECT_EQ(reference.retry_successes, got.retry_successes) << label;
    EXPECT_EQ(reference.degraded_results, got.degraded_results) << label;
    EXPECT_EQ(reference.io_error_failures, got.io_error_failures) << label;
    EXPECT_EQ(reference.quarantine_rejections, got.quarantine_rejections)
        << label;
    EXPECT_EQ(reference.breaker_opens, got.breaker_opens) << label;
    EXPECT_EQ(reference.breaker_probes, got.breaker_probes) << label;
    EXPECT_EQ(reference.breaker_closes, got.breaker_closes) << label;
    EXPECT_EQ(reference.cache_io_errors, got.cache_io_errors) << label;
    EXPECT_EQ(reference.injector_faults, got.injector_faults) << label;
  }
}

TEST_F(DeterminismTest, EndToEndFixedSeedPinsTheExactSeedSet) {
  // The full chain — build (done in SetUp with a fixed seed) + query —
  // must reproduce the same seeds when repeated from scratch in this
  // process (a separately built index directory, separate caches).
  const std::string dir2 = dir_ + "_again";
  std::filesystem::create_directories(dir2);
  IndexBuildOptions opts;
  opts.epsilon = 0.5;
  opts.max_k = 12;
  opts.partition_size = 20;
  opts.num_threads = 4;  // build parallelism must not matter either
  opts.seed = 373;
  opts.max_theta_per_keyword = 20000;
  opts.opt_estimate.pilot_initial = 512;
  IndexBuilder builder(env_->graph(), env_->tfidf(),
                       env_->weights(opts.model), opts);
  ASSERT_TRUE(builder.Build(dir2).ok());

  auto a = IrrIndex::Open(dir_);
  auto b = IrrIndex::Open(dir2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const Query& q : {Query{{0, 2}, 8}, Query{{1, 3, 4}, 5}}) {
    auto want = a->Query(q);
    auto got = b->Query(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectIdentical(*want, *got, "rebuilt index");
  }
  std::filesystem::remove_all(dir2);
}

}  // namespace
}  // namespace kbtim
