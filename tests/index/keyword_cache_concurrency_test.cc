// Raw-contention stress for the KeywordCache itself: N threads hammer one
// cache with mixed IRR/RR block fetches and prefetches under a tiny byte
// budget (constant evictions), assert every fetched block is byte-equal
// to a golden single-threaded cache's, and check the counter invariants
// the cache promises (one hit-or-miss per lookup, LRU byte bound at
// quiescence). This suite is a primary ThreadSanitizer target in CI.
#include "index/keyword_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_index.h"

namespace kbtim {
namespace {

class KeywordCacheConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_kwconc_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "kwconc";
    spec.graph.num_vertices = 1000;
    spec.graph.avg_degree = 5.0;
    spec.graph.num_communities = 5;
    spec.graph.seed = 271;
    spec.profiles.num_topics = 4;
    spec.profiles.seed = 272;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 12;
    opts.partition_size = 20;  // several partitions per keyword
    opts.num_threads = 2;
    opts.seed = 273;
    opts.max_theta_per_keyword = 20000;
    opts.opt_estimate.pilot_initial = 512;
    IndexBuilder builder(env_->graph(), env_->tfidf(),
                         env_->weights(opts.model), opts);
    auto report = builder.Build(dir_);
    ASSERT_TRUE(report.ok()) << report.status();

    // Golden cache: unbounded, no prefetch, single-threaded use only.
    KeywordCacheOptions golden_options;
    golden_options.prefetch_threads = 0;
    auto golden = KeywordCache::Create(dir_, golden_options);
    ASSERT_TRUE(golden.ok());
    golden_ = *golden;
    num_topics_ = golden_->meta().num_topics;
    uint64_t max_block = 0;
    for (TopicId t = 0; t < num_topics_; ++t) {
      auto entry = golden_->GetIrrKeyword(t);
      ASSERT_TRUE(entry.ok());
      golden_entries_.push_back(*entry);
      std::vector<std::shared_ptr<const IrrPartitionBlock>> blocks;
      for (uint64_t p = 0; p < (*entry)->num_partitions; ++p) {
        auto block = golden_->GetIrrPartition(**entry, p);
        ASSERT_TRUE(block.ok());
        max_block = std::max(max_block, (*block)->bytes);
        blocks.push_back(*block);
      }
      golden_irr_.push_back(std::move(blocks));
      const uint64_t theta_w = (*entry)->theta_w;
      golden_rr_budget_.push_back(std::max<uint64_t>(1, theta_w / 2));
      auto rr = golden_->GetRrKeyword(t, golden_rr_budget_.back());
      ASSERT_TRUE(rr.ok());
      golden_rr_.push_back(*rr);
    }
    // Stress budget: roughly three average blocks stay resident, so every
    // sweep over all topics keeps evicting, yet no block is larger than
    // the budget, so none bypasses admission.
    stress_budget_ = std::max<uint64_t>(3 * max_block, 1);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static bool SameIrrBlock(const IrrPartitionBlock& a,
                           const IrrPartitionBlock& b) {
    if (a.users != b.users || a.list_offsets != b.list_offsets ||
        a.list_ids != b.list_ids || a.set_ids != b.set_ids) {
      return false;
    }
    for (size_t s = 0; s < a.set_ids.size(); ++s) {
      const auto sa = a.SetMembers(s);
      const auto sb = b.SetMembers(s);
      if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
        return false;
      }
    }
    return true;
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
  std::shared_ptr<KeywordCache> golden_;
  uint32_t num_topics_ = 0;
  std::vector<std::shared_ptr<const IrrKeywordEntry>> golden_entries_;
  std::vector<std::vector<std::shared_ptr<const IrrPartitionBlock>>>
      golden_irr_;
  std::vector<uint64_t> golden_rr_budget_;
  std::vector<std::shared_ptr<const RrKeywordBlock>> golden_rr_;
  uint64_t stress_budget_ = 0;
};

TEST_F(KeywordCacheConcurrencyTest, HammeredCacheServesGoldenBlocks) {
  KeywordCacheOptions options;
  options.block_cache_bytes = stress_budget_;
  options.prefetch_threads = 2;
  options.prefetch_depth = 2;
  auto cache_or = KeywordCache::Create(dir_, options);
  ASSERT_TRUE(cache_or.ok());
  auto cache = *cache_or;

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<uint64_t> lookups{0};
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the topics from its own starting point so
        // the tiny LRU sees conflicting access orders.
        for (uint32_t i = 0; i < num_topics_; ++i) {
          const TopicId topic = (t + i) % num_topics_;
          auto entry = cache->GetIrrKeyword(topic);
          if (!entry.ok()) {
            ++failures[t];
            continue;
          }
          for (uint64_t p = 0; p < (*entry)->num_partitions; ++p) {
            // Race a prefetch of the next partition against foreground
            // fetches of the same window from other threads.
            cache->PrefetchIrrPartition(*entry, p + 1);
            auto block = cache->GetIrrPartition(**entry, p);
            lookups.fetch_add(1, std::memory_order_relaxed);
            if (!block.ok() ||
                !SameIrrBlock(**block, *golden_irr_[topic][p])) {
              ++failures[t];
            }
          }
          // RR side: alternate between the golden budget and a smaller
          // one (served from whatever prefix is resident).
          const uint64_t budget = (t + round) % 2 == 0
                                      ? golden_rr_budget_[topic]
                                      : std::max<uint64_t>(
                                            1, golden_rr_budget_[topic] / 2);
          auto rr = cache->GetRrKeyword(topic, budget);
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (!rr.ok()) {
            ++failures[t];
            continue;
          }
          // Budget-restricted lists must match the golden block's view.
          const RrKeywordBlock& want = *golden_rr_[topic];
          for (size_t j = 0; j < want.list_vertex.size() && j < 16; ++j) {
            const VertexId v = want.list_vertex[j];
            const auto a = want.ListOf(v, budget);
            const auto b = (*rr)->ListOf(v, budget);
            if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
              ++failures[t];
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }

  cache->WaitForPrefetches();
  const KeywordCacheStats stats = cache->stats();
  // Every lookup counted exactly one hit or miss (prefetch joins are
  // misses too), and the thrashing really happened.
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_cached, options.block_cache_bytes);
  EXPECT_EQ(stats.preamble_loads, uint64_t{num_topics_} * 2);  // IRR + RR
}

TEST_F(KeywordCacheConcurrencyTest, DropBlocksWhileReadersRun) {
  KeywordCacheOptions options;
  options.block_cache_bytes = stress_budget_;
  options.prefetch_threads = 2;
  auto cache_or = KeywordCache::Create(dir_, options);
  ASSERT_TRUE(cache_or.ok());
  auto cache = *cache_or;

  std::atomic<bool> stop{false};
  std::thread dropper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache->DropBlocks();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  constexpr int kThreads = 6;
  constexpr int kRounds = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const TopicId topic = (t + round) % num_topics_;
        auto entry = cache->GetIrrKeyword(topic);
        if (!entry.ok()) {
          ++failures[t];
          continue;
        }
        for (uint64_t p = 0; p < (*entry)->num_partitions; ++p) {
          cache->PrefetchIrrPartition(*entry, p);
          auto block = cache->GetIrrPartition(**entry, p);
          // Blocks pinned via shared_ptr survive any concurrent drop.
          if (!block.ok() ||
              !SameIrrBlock(**block, *golden_irr_[topic][p])) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  dropper.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

TEST_F(KeywordCacheConcurrencyTest, ConcurrentQueriesUnderForcedEviction) {
  // End-to-end variant: whole IRR/RR queries (not raw block fetches)
  // racing over one thrashing cache, including both IRR modes, checked
  // against single-threaded answers from the golden cache.
  auto golden_irr = IrrIndex::Open(golden_);
  auto golden_rr = RrIndex::Open(golden_);
  ASSERT_TRUE(golden_irr.ok());
  ASSERT_TRUE(golden_rr.ok());
  const std::vector<Query> queries = {
      {{0, 1}, 5}, {{1, 2}, 8}, {{2, 3}, 4}, {{0, 3}, 10}, {{1}, 6}};
  std::vector<SeedSetResult> want_irr, want_rr;
  for (const Query& q : queries) {
    auto a = golden_irr->Query(q);
    auto b = golden_rr->Query(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    want_irr.push_back(std::move(*a));
    want_rr.push_back(std::move(*b));
  }

  KeywordCacheOptions options;
  options.block_cache_bytes = stress_budget_;
  options.prefetch_threads = 3;
  auto cache_or = KeywordCache::Create(dir_, options);
  ASSERT_TRUE(cache_or.ok());
  auto irr_or = IrrIndex::Open(*cache_or);
  auto rr_or = RrIndex::Open(*cache_or);
  ASSERT_TRUE(irr_or.ok());
  ASSERT_TRUE(rr_or.ok());
  const IrrIndex irr = *irr_or;
  const RrIndex rr = *rr_or;

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t qi = (t + round) % queries.size();
        StatusOr<SeedSetResult> result = Status::Internal("unset");
        const SeedSetResult* want = nullptr;
        switch (t % 3) {
          case 0:
            result = irr.Query(queries[qi], IrrQueryMode::kLazy);
            want = &want_irr[qi];
            break;
          case 1:
            result = irr.Query(queries[qi], IrrQueryMode::kEager);
            want = &want_irr[qi];
            break;
          default:
            result = rr.Query(queries[qi]);
            want = &want_rr[qi];
            break;
        }
        if (!result.ok() || result->seeds != want->seeds ||
            result->estimated_influence != want->estimated_influence) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  const KeywordCacheStats stats = (*cache_or)->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_cached, options.block_cache_bytes);
}

}  // namespace
}  // namespace kbtim
