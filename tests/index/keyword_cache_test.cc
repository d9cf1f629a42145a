// The warm-path contract of the keyword cache: repeated queries perform
// zero preamble re-reads (and zero reads at all once the touched blocks
// are resident), hit/miss/byte accounting is exact, the LRU respects its
// byte bound, budget-restricted lists served from cache are correct, one
// shared cache survives concurrent queries, and Theorem-3 equality holds
// through the cache in both IRR modes.
#include "index/keyword_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "storage/io_counter.h"

namespace kbtim {
namespace {

class KeywordCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_kwcache_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "kwcache";
    spec.graph.num_vertices = 1000;
    spec.graph.avg_degree = 5.0;
    spec.graph.num_communities = 5;
    spec.graph.seed = 77;
    spec.profiles.num_topics = 5;
    spec.profiles.seed = 78;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    IndexBuildOptions opts = BuildOptions();
    IndexBuilder builder(env_->graph(), env_->tfidf(),
                         env_->weights(opts.model), opts);
    auto report = builder.Build(dir_);
    ASSERT_TRUE(report.ok()) << report.status();
  }

  static IndexBuildOptions BuildOptions() {
    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 12;
    opts.partition_size = 20;  // several partitions per keyword
    opts.num_threads = 2;
    opts.seed = 79;
    opts.max_theta_per_keyword = 20000;
    opts.opt_estimate.pilot_initial = 512;
    return opts;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void ExpectSameResult(const SeedSetResult& a,
                               const SeedSetResult& b) {
    ASSERT_EQ(a.seeds, b.seeds);
    ASSERT_EQ(a.marginal_gains.size(), b.marginal_gains.size());
    for (size_t i = 0; i < a.marginal_gains.size(); ++i) {
      ASSERT_DOUBLE_EQ(a.marginal_gains[i], b.marginal_gains[i]);
    }
    ASSERT_DOUBLE_EQ(a.estimated_influence, b.estimated_influence);
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
};

TEST_F(KeywordCacheTest, WarmIrrQueryPerformsZeroReads) {
  auto irr = IrrIndex::Open(dir_);
  ASSERT_TRUE(irr.ok());
  const Query q{{0, 2}, 8};

  auto cold = irr->Query(q);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->stats.io_reads, 0u);
  // Every partition was decoded this query — by a foreground miss or by
  // the background pipeline (a fast prefetch can land before the
  // foreground lookup, which then counts as a hit).
  EXPECT_GT(cold->stats.cache_misses + cold->stats.prefetches_issued, 0u);

  // Acceptance criterion: the second identical query's IoCounter read-op
  // delta is 0 — no preamble re-reads and no partition reads at all.
  // Drain the background pipeline first: the cold query's trailing
  // one-ahead prefetch may still be reading, and its I/O belongs to the
  // cold window, not the warm one.
  irr->cache()->WaitForPrefetches();
  const IoStats before = IoCounter::Snapshot();
  auto warm = irr->Query(q);
  ASSERT_TRUE(warm.ok());
  const IoStats delta = IoCounter::Snapshot() - before;
  EXPECT_EQ(delta.read_ops, 0u);
  EXPECT_EQ(delta.read_bytes, 0u);
  EXPECT_EQ(warm->stats.io_reads, 0u);
  EXPECT_EQ(warm->stats.cache_misses, 0u);
  // Fully resident working set: the pipeline has nothing to schedule.
  EXPECT_EQ(warm->stats.prefetches_issued, 0u);
  EXPECT_GT(warm->stats.cache_hits, 0u);
  ExpectSameResult(*cold, *warm);
  // Logical work is unchanged: the warm query still "loads" the same sets.
  EXPECT_EQ(cold->stats.rr_sets_loaded, warm->stats.rr_sets_loaded);
}

TEST_F(KeywordCacheTest, WarmRrQueryPerformsZeroReads) {
  auto rr = RrIndex::Open(dir_);
  ASSERT_TRUE(rr.ok());
  const Query q{{1, 3}, 6};

  auto cold = rr->Query(q);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->stats.io_reads, 0u);

  const IoStats before = IoCounter::Snapshot();
  auto warm = rr->Query(q);
  ASSERT_TRUE(warm.ok());
  const IoStats delta = IoCounter::Snapshot() - before;
  EXPECT_EQ(delta.read_ops, 0u);
  EXPECT_EQ(warm->stats.cache_misses, 0u);
  EXPECT_GT(warm->stats.cache_hits, 0u);
  ExpectSameResult(*cold, *warm);
}

TEST_F(KeywordCacheTest, HitMissAndByteAccounting) {
  auto cache_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(cache_or.ok());
  auto cache = *cache_or;

  auto entry = cache->GetIrrKeyword(0);
  ASSERT_TRUE(entry.ok());
  auto entry_again = cache->GetIrrKeyword(0);
  ASSERT_TRUE(entry_again.ok());
  EXPECT_EQ(entry->get(), entry_again->get());  // same shared preamble
  EXPECT_EQ(cache->stats().preamble_loads, 1u);
  // Preambles don't count against the block budget.
  EXPECT_EQ(cache->stats().bytes_cached, 0u);

  ASSERT_GT((*entry)->num_partitions, 1u);
  auto block = cache->GetIrrPartition(**entry, 0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().bytes_cached, (*block)->bytes);
  EXPECT_GT((*block)->bytes, 0u);

  auto block_again = cache->GetIrrPartition(**entry, 0);
  ASSERT_TRUE(block_again.ok());
  EXPECT_EQ(block->get(), block_again->get());
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);

  auto other = cache->GetIrrPartition(**entry, 1);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().bytes_cached,
            (*block)->bytes + (*other)->bytes);

  cache->DropBlocks();
  EXPECT_EQ(cache->stats().bytes_cached, 0u);
  // Entries survive DropBlocks; only blocks were shed.
  ASSERT_TRUE(cache->GetIrrKeyword(0).ok());
  EXPECT_EQ(cache->stats().preamble_loads, 1u);
}

TEST_F(KeywordCacheTest, LruEvictionRespectsByteBound) {
  // Reference run with an unbounded cache to learn the resident size.
  auto big = IrrIndex::Open(dir_);
  ASSERT_TRUE(big.ok());
  const Query q{{0, 1, 2}, 10};
  auto reference = big->Query(q);
  ASSERT_TRUE(reference.ok());
  const uint64_t full_bytes = big->cache()->stats().bytes_cached;
  ASSERT_GT(full_bytes, 0u);

  // Now bound the cache well below the working set.
  KeywordCacheOptions options;
  options.block_cache_bytes = full_bytes / 3;
  auto small = IrrIndex::Open(dir_, options);
  ASSERT_TRUE(small.ok());
  auto first = small->Query(q);
  ASSERT_TRUE(first.ok());
  auto second = small->Query(q);
  ASSERT_TRUE(second.ok());

  const KeywordCacheStats stats = small->cache()->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_cached, options.block_cache_bytes);
  // Bounded cache changes I/O, never answers.
  ExpectSameResult(*reference, *first);
  ExpectSameResult(*reference, *second);
}

TEST_F(KeywordCacheTest, DisabledBlockCacheStaysCorrect) {
  KeywordCacheOptions options;
  options.block_cache_bytes = 0;
  auto irr = IrrIndex::Open(dir_, options);
  ASSERT_TRUE(irr.ok());
  auto reference = IrrIndex::Open(dir_);
  ASSERT_TRUE(reference.ok());

  const Query q{{0, 4}, 8};
  auto ref = reference->Query(q);
  ASSERT_TRUE(ref.ok());
  auto a = irr->Query(q);
  auto b = irr->Query(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameResult(*ref, *a);
  ExpectSameResult(*ref, *b);
  // Every query re-decodes...
  EXPECT_GT(b->stats.cache_misses, 0u);
  EXPECT_EQ(irr->cache()->stats().bytes_cached, 0u);
  // ...but preambles are still parsed only once per topic.
  EXPECT_EQ(irr->cache()->stats().preamble_loads, 2u);
}

TEST_F(KeywordCacheTest, RrBudgetGrowsMonotonically) {
  auto cache_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(cache_or.ok());
  auto cache = *cache_or;

  auto small = cache->GetRrKeyword(0, 5);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ((*small)->loaded_budget, 5u);
  EXPECT_EQ(cache->stats().misses, 1u);

  // Smaller budget: served from the same block.
  auto sub = cache->GetRrKeyword(0, 3);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(small->get(), sub->get());
  EXPECT_EQ(cache->stats().hits, 1u);

  // Larger budget: the cached prefix is replaced, not duplicated.
  auto grown = cache->GetRrKeyword(0, 10);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*grown)->loaded_budget, 10u);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().bytes_cached, (*grown)->bytes);

  // The grown block's restricted view matches the small block's lists.
  for (size_t i = 0; i < (*small)->list_vertex.size(); ++i) {
    const VertexId v = (*small)->list_vertex[i];
    const auto a = (*small)->ListOf(v, 5);
    const auto b = (*grown)->ListOf(v, 5);
    ASSERT_EQ(std::vector<RrId>(a.begin(), a.end()),
              std::vector<RrId>(b.begin(), b.end()));
  }
}

TEST_F(KeywordCacheTest, SharedCacheServesIrrAndRr) {
  auto cache_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(cache_or.ok());
  auto irr = IrrIndex::Open(*cache_or);
  auto rr = RrIndex::Open(*cache_or);
  ASSERT_TRUE(irr.ok());
  ASSERT_TRUE(rr.ok());
  const Query q{{2, 3}, 7};
  auto rr_result = rr->Query(q);
  auto irr_result = irr->Query(q);
  ASSERT_TRUE(rr_result.ok());
  ASSERT_TRUE(irr_result.ok());
  // Theorem 3 equality across the two paths sharing one cache.
  ExpectSameResult(*rr_result, *irr_result);
}

TEST_F(KeywordCacheTest, Theorem3HoldsWarmInBothModes) {
  auto rr = RrIndex::Open(dir_);
  auto irr = IrrIndex::Open(dir_);
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(irr.ok());
  const Query q{{0, 1, 4}, 9};
  auto reference = rr->Query(q);
  ASSERT_TRUE(reference.ok());
  // Two passes: the first loads the cache, the second is fully warm.
  for (int pass = 0; pass < 2; ++pass) {
    for (IrrQueryMode mode : {IrrQueryMode::kLazy, IrrQueryMode::kEager}) {
      auto result = irr->Query(q, mode);
      ASSERT_TRUE(result.ok());
      ExpectSameResult(*reference, *result);
    }
  }
}

TEST_F(KeywordCacheTest, GroupVarintIndexAnswersIdentically) {
  // Same samples (same seed), different payload codec: every query must
  // answer byte-identically through both index formats.
  const std::string gdir = dir_ + "_gvarint";
  std::filesystem::create_directories(gdir);
  IndexBuildOptions opts = BuildOptions();
  opts.codec = CodecKind::kGroupVarint;
  IndexBuilder builder(env_->graph(), env_->tfidf(),
                       env_->weights(opts.model), opts);
  ASSERT_TRUE(builder.Build(gdir).ok());

  auto pfor_irr = IrrIndex::Open(dir_);
  auto gv_irr = IrrIndex::Open(gdir);
  auto gv_rr = RrIndex::Open(gdir);
  ASSERT_TRUE(pfor_irr.ok());
  ASSERT_TRUE(gv_irr.ok());
  ASSERT_TRUE(gv_rr.ok());
  EXPECT_EQ(gv_irr->meta().codec, CodecKind::kGroupVarint);
  for (const Query& q : {Query{{0, 2}, 8}, Query{{1, 3, 4}, 5}}) {
    auto want = pfor_irr->Query(q);
    auto got = gv_irr->Query(q);
    auto got_rr = gv_rr->Query(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got_rr.ok());
    ExpectSameResult(*want, *got);
    ExpectSameResult(*want, *got_rr);
  }
  std::filesystem::remove_all(gdir);
}

TEST_F(KeywordCacheTest, PrefetchPipelineMatchesUnpipelinedResults) {
  // Prefetch must change WHEN blocks decode, never WHAT a query answers.
  KeywordCacheOptions no_prefetch;
  no_prefetch.prefetch_threads = 0;
  auto reference = IrrIndex::Open(dir_, no_prefetch);
  ASSERT_TRUE(reference.ok());

  KeywordCacheOptions pipelined;
  pipelined.prefetch_threads = 3;
  auto irr = IrrIndex::Open(dir_, pipelined);
  ASSERT_TRUE(irr.ok());

  const std::vector<Query> queries = {
      {{0, 2}, 8}, {{1}, 5}, {{0, 1, 4}, 12}, {{3, 4}, 3}};
  uint64_t issued = 0;
  for (const Query& q : queries) {
    auto want = reference->Query(q);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(want->stats.prefetches_issued, 0u);
    for (IrrQueryMode mode : {IrrQueryMode::kLazy, IrrQueryMode::kEager}) {
      auto got = irr->Query(q, mode);
      ASSERT_TRUE(got.ok());
      ExpectSameResult(*want, *got);
      issued += got->stats.prefetches_issued;
    }
  }
  // The pipeline actually ran on the cold pass.
  EXPECT_GT(issued, 0u);
  // Same logical access pattern: identical RR sets loaded either way.
}

TEST_F(KeywordCacheTest, PrefetcherShutdownMidQueryIsSafe) {
  // Issue a burst of prefetches and destroy the cache immediately: the
  // pool must drain queued decodes against still-live state (no
  // use-after-free under ASan) and every future must land.
  for (int round = 0; round < 5; ++round) {
    auto cache_or = KeywordCache::Create(dir_);
    ASSERT_TRUE(cache_or.ok());
    auto cache = *cache_or;
    auto entry = cache->GetIrrKeyword(round % 5);
    ASSERT_TRUE(entry.ok());
    for (uint64_t p = 0; p < (*entry)->num_partitions; ++p) {
      cache->PrefetchIrrPartition(*entry, p);
    }
    // Alternate: sometimes drain first, sometimes drop mid-flight.
    if (round % 2 == 0) cache->WaitForPrefetches();
    cache.reset();
  }
}

TEST_F(KeywordCacheTest, PrefetchedBlocksAreDeterministic) {
  // A block decoded by the pipeline must be byte-identical to one decoded
  // by a foreground miss.
  auto a_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(a_or.ok());
  auto prefetched = *a_or;
  KeywordCacheOptions no_prefetch;
  no_prefetch.prefetch_threads = 0;
  auto direct_or = KeywordCache::Create(dir_, no_prefetch);
  ASSERT_TRUE(direct_or.ok());
  auto direct = *direct_or;

  auto entry_a = prefetched->GetIrrKeyword(1);
  auto entry_b = direct->GetIrrKeyword(1);
  ASSERT_TRUE(entry_a.ok());
  ASSERT_TRUE(entry_b.ok());
  for (uint64_t p = 0; p < (*entry_a)->num_partitions; ++p) {
    prefetched->PrefetchIrrPartition(*entry_a, p);
  }
  prefetched->WaitForPrefetches();
  EXPECT_GT(prefetched->stats().prefetches_issued, 0u);
  for (uint64_t p = 0; p < (*entry_a)->num_partitions; ++p) {
    auto got = prefetched->GetIrrPartition(**entry_a, p);
    auto want = direct->GetIrrPartition(**entry_b, p);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ((*got)->users, (*want)->users);
    EXPECT_EQ((*got)->list_offsets, (*want)->list_offsets);
    EXPECT_EQ((*got)->list_ids, (*want)->list_ids);
    EXPECT_EQ((*got)->set_ids, (*want)->set_ids);
    for (size_t s = 0; s < (*got)->set_ids.size(); ++s) {
      const auto a = (*got)->SetMembers(s);
      const auto b = (*want)->SetMembers(s);
      ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
                std::vector<VertexId>(b.begin(), b.end()));
    }
  }
  // Prefetched blocks were resident: lookups above were hits, not misses.
  EXPECT_EQ(prefetched->stats().misses, 0u);

  // Each prefetched block counts one prefetch hit, on its first lookup
  // only: a second pass of lookups leaves the count where it was.
  const uint64_t partitions = (*entry_a)->num_partitions;
  EXPECT_EQ(prefetched->stats().prefetches_issued, partitions);
  EXPECT_EQ(prefetched->stats().prefetch_hits, partitions);
  for (uint64_t p = 0; p < partitions; ++p) {
    ASSERT_TRUE(prefetched->GetIrrPartition(**entry_a, p).ok());
  }
  EXPECT_EQ(prefetched->stats().prefetch_hits, partitions);
  EXPECT_EQ(direct->stats().prefetch_hits, 0u);
}

TEST_F(KeywordCacheTest, AdmissionPolicySkipsOversizedBlocks) {
  // Learn the largest block, then bound the cache just below it: that
  // block is served but never cached, and the rest share the budget.
  auto probe_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(probe_or.ok());
  auto probe = *probe_or;
  auto entry = probe->GetIrrKeyword(0);
  ASSERT_TRUE(entry.ok());
  uint64_t max_block = 0;
  for (uint64_t p = 0; p < (*entry)->num_partitions; ++p) {
    auto block = probe->GetIrrPartition(**entry, p);
    ASSERT_TRUE(block.ok());
    max_block = std::max(max_block, (*block)->bytes);
  }
  ASSERT_GT(max_block, 0u);

  KeywordCacheOptions options;
  options.block_cache_bytes = max_block - 1;
  options.prefetch_threads = 0;
  auto strict_or = KeywordCache::Create(dir_, options);
  ASSERT_TRUE(strict_or.ok());
  auto strict = *strict_or;
  auto strict_entry = strict->GetIrrKeyword(0);
  ASSERT_TRUE(strict_entry.ok());
  auto probe_ref = probe->GetIrrPartition(**entry, 0);
  ASSERT_TRUE(probe_ref.ok());
  for (uint64_t p = 0; p < (*strict_entry)->num_partitions; ++p) {
    auto block = strict->GetIrrPartition(**strict_entry, p);
    ASSERT_TRUE(block.ok());  // bypassed blocks still serve the query
  }
  const KeywordCacheStats stats = strict->stats();
  // At least the largest block was refused residency; the LRU bound is
  // still honored for what was admitted.
  EXPECT_GT(stats.admission_bypasses, 0u);
  EXPECT_LE(stats.bytes_cached, options.block_cache_bytes);
  // Re-reading a bypassed block re-decodes (the policy trades that) but
  // answers stay identical to the unrestricted cache's.
  auto again = strict->GetIrrPartition(**strict_entry, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->list_ids, (*probe_ref)->list_ids);
}

TEST_F(KeywordCacheTest, AdmissionBypassSurfacesInSolverStats) {
  KeywordCacheOptions options;
  options.block_cache_bytes = 16;  // tiny: every real block bypasses
  options.prefetch_threads = 0;
  auto irr = IrrIndex::Open(dir_, options);
  ASSERT_TRUE(irr.ok());
  auto reference = IrrIndex::Open(dir_);
  ASSERT_TRUE(reference.ok());
  const Query q{{0, 2}, 8};
  auto want = reference->Query(q);
  auto got = irr->Query(q);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectSameResult(*want, *got);
  EXPECT_GT(got->stats.cache_admission_bypasses, 0u);
  EXPECT_EQ(irr->cache()->stats().bytes_cached, 0u);
}

TEST_F(KeywordCacheTest, ConcurrentQueriesThroughOneSharedCache) {
  auto cache_or = KeywordCache::Create(dir_);
  ASSERT_TRUE(cache_or.ok());
  auto irr_or = IrrIndex::Open(*cache_or);
  auto rr_or = RrIndex::Open(*cache_or);
  ASSERT_TRUE(irr_or.ok());
  ASSERT_TRUE(rr_or.ok());
  const IrrIndex irr = *irr_or;
  const RrIndex rr = *rr_or;

  const std::vector<Query> queries = {
      {{0, 1}, 5}, {{1, 2}, 8}, {{2, 3}, 4}, {{0, 4}, 10}, {{3}, 6}};
  // Single-threaded reference answers (through a separate cold cache).
  auto ref_index = IrrIndex::Open(dir_);
  ASSERT_TRUE(ref_index.ok());
  std::vector<SeedSetResult> expected;
  for (const Query& q : queries) {
    auto r = ref_index->Query(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(*r));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t qi = (t + round) % queries.size();
        // Alternate IRR and RR so both block kinds contend.
        StatusOr<SeedSetResult> r =
            (t % 2 == 0) ? irr.Query(queries[qi]) : rr.Query(queries[qi]);
        if (!r.ok() || r->seeds != expected[qi].seeds ||
            r->estimated_influence != expected[qi].estimated_influence) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace kbtim
