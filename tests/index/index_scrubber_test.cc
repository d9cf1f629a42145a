// Online scrubber: clean passes count every topic, latent corruption in
// cold files is detected, quarantined (atomic rename to *.quarantine)
// and healed by a deterministic single-topic rebuild to golden-equal
// answers — on the cache's prefetch pool or inline when the cache has
// none, and under live QueryService traffic — while topics behind an
// open breaker are skipped, never touched.
#include "index/index_scrubber.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/index_verifier.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "serving/query_service.h"

namespace kbtim {
namespace {

class IndexScrubberTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_scrubber_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "scrub";
    spec.graph.num_vertices = 800;
    spec.graph.avg_degree = 4.0;
    spec.graph.num_communities = 4;
    spec.graph.seed = 71;
    spec.profiles.num_topics = 4;
    spec.profiles.seed = 72;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    opts_.epsilon = 0.5;
    opts_.max_k = 10;
    opts_.partition_size = 20;
    opts_.num_threads = 2;
    opts_.seed = 73;
    opts_.max_theta_per_keyword = 10000;
    opts_.opt_estimate.pilot_initial = 256;
    Build();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Build() {
    IndexBuilder builder(env_->graph(), env_->tfidf(),
                         env_->weights(opts_.model), opts_);
    ASSERT_TRUE(builder.Build(dir_).ok());
  }

  /// A rebuilder over the same deterministic build inputs — what a
  /// production deployment wires to IndexBuilder::RebuildTopic.
  IndexScrubber::RebuildFn Rebuilder() {
    return [this](TopicId topic) {
      IndexBuilder builder(env_->graph(), env_->tfidf(),
                           env_->weights(opts_.model), opts_);
      return builder.RebuildTopic(dir_, topic);
    };
  }

  /// XORs one byte at `offset` (from the end when negative) in `path`.
  static void FlipByte(const std::string& path, int64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good()) << path;
    if (offset < 0) {
      f.seekg(0, std::ios::end);
      offset += static_cast<int64_t>(f.tellg());
    }
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x20;
    f.seekp(offset);
    f.write(&byte, 1);
  }

  uint32_t NonEmptyTopics() const {
    auto meta = ReadIndexMeta(MetaFileName(dir_));
    EXPECT_TRUE(meta.ok());
    uint32_t n = 0;
    for (const auto& tm : meta->topics) n += tm.theta > 0 ? 1 : 0;
    return n;
  }

  static void ExpectSameResult(const SeedSetResult& a,
                               const SeedSetResult& b) {
    ASSERT_EQ(a.seeds, b.seeds);
    ASSERT_DOUBLE_EQ(a.estimated_influence, b.estimated_influence);
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
  IndexBuildOptions opts_;
};

TEST_F(IndexScrubberTest, CleanPassVerifiesEveryTopic) {
  auto cache = KeywordCache::Create(dir_, {});
  ASSERT_TRUE(cache.ok());
  IndexScrubberOptions sopts;
  sopts.pace_ms = 0;
  IndexScrubber scrubber(*cache, sopts);
  ASSERT_TRUE(scrubber.ScrubPass().ok());

  const IndexScrubberStats stats = scrubber.stats();
  EXPECT_EQ(stats.topics_scrubbed, NonEmptyTopics());
  EXPECT_GT(stats.blocks_scrubbed, 0u);
  EXPECT_GT(stats.bytes_scrubbed, 0u);
  EXPECT_EQ(stats.crc_failures, 0u);
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.passes, 1u);
}

TEST_F(IndexScrubberTest, DetectsQuarantinesAndRebuildsToGoldenEqual) {
  const Query q{{0}, 6};
  SeedSetResult golden_irr, golden_rr;
  {
    auto cache = KeywordCache::Create(dir_, {});
    ASSERT_TRUE(cache.ok());
    auto irr = IrrIndex::Open(*cache);
    auto rr = RrIndex::Open(*cache);
    ASSERT_TRUE(irr.ok() && rr.ok());
    auto ri = irr->Query(q);
    auto rb = rr->Query(q);
    ASSERT_TRUE(ri.ok() && rb.ok());
    golden_irr = std::move(*ri);
    golden_rr = std::move(*rb);
  }

  // Scrub units run on the cache's prefetch pool by default, and inline
  // when the cache has no pool (prefetch_threads = 0).
  for (const uint32_t prefetch_threads : {2u, 0u}) {
    SCOPED_TRACE("prefetch_threads=" + std::to_string(prefetch_threads));
    // A latent flip deep in topic 0's RR payload — no query is running,
    // so only the scrubber can find it.
    FlipByte(RrFileName(dir_, 0), -64);

    KeywordCacheOptions copts;
    copts.prefetch_threads = prefetch_threads;
    auto cache = KeywordCache::Create(dir_, copts);
    ASSERT_TRUE(cache.ok());
    IndexScrubberOptions sopts;
    sopts.pace_ms = 0;
    IndexScrubber scrubber(*cache, sopts);
    scrubber.SetRebuilder(Rebuilder());
    ASSERT_TRUE(scrubber.ScrubTopic(0).ok());  // detected AND healed

    const IndexScrubberStats stats = scrubber.stats();
    EXPECT_GE(stats.crc_failures, 1u);
    EXPECT_EQ(stats.quarantines, 1u);
    EXPECT_EQ(stats.rebuilds, 1u);
    EXPECT_EQ(stats.rebuild_failures, 0u);
    // Forensics: the corrupted bytes were renamed aside, not destroyed.
    EXPECT_TRUE(
        std::filesystem::exists(RrFileName(dir_, 0) + ".quarantine"));

    // The healed index is byte-for-byte verifiable and golden-equal
    // through the SAME cache (the scrubber invalidated the topic).
    auto verified = VerifyIndex(dir_);
    ASSERT_TRUE(verified.ok()) << verified.status();
    EXPECT_GE(verified->checksums_verified, 1u);
    auto irr = IrrIndex::Open(*cache);
    auto rr = RrIndex::Open(*cache);
    ASSERT_TRUE(irr.ok() && rr.ok());
    auto healed_irr = irr->Query(q);
    auto healed_rr = rr->Query(q);
    ASSERT_TRUE(healed_irr.ok()) << healed_irr.status();
    ASSERT_TRUE(healed_rr.ok()) << healed_rr.status();
    ExpectSameResult(golden_irr, *healed_irr);
    ExpectSameResult(golden_rr, *healed_rr);
  }
}

TEST_F(IndexScrubberTest, RepairOffDetectsAndReportsOnly) {
  FlipByte(ListsFileName(dir_, 1), -16);
  auto cache = KeywordCache::Create(dir_, {});
  ASSERT_TRUE(cache.ok());
  IndexScrubberOptions sopts;
  sopts.pace_ms = 0;
  sopts.repair = false;
  IndexScrubber scrubber(*cache, sopts);
  const Status s = scrubber.ScrubTopic(1);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_GE(scrubber.stats().crc_failures, 1u);
  EXPECT_EQ(scrubber.stats().quarantines, 0u);
  // The corrupted file is untouched — detect-only mode never renames.
  EXPECT_TRUE(std::filesystem::exists(ListsFileName(dir_, 1)));
}

TEST_F(IndexScrubberTest, OpenBreakerSkipsTopicUntouched) {
  FlipByte(IrrFileName(dir_, 0), -32);
  auto cache = KeywordCache::Create(dir_, {});
  ASSERT_TRUE(cache.ok());
  IndexScrubberOptions sopts;
  sopts.pace_ms = 0;
  IndexScrubber scrubber(*cache, sopts);
  scrubber.SetRebuilder(Rebuilder());
  scrubber.SetAdmitFn([](TopicId topic) { return topic != 0; });

  ASSERT_TRUE(scrubber.ScrubPass().ok());
  const IndexScrubberStats stats = scrubber.stats();
  EXPECT_GE(stats.topics_skipped_breaker, 1u);
  EXPECT_EQ(stats.quarantines, 0u);
  // The skipped topic's corrupted file was not opened, renamed or healed.
  EXPECT_TRUE(std::filesystem::exists(IrrFileName(dir_, 0)));
  EXPECT_FALSE(
      std::filesystem::exists(IrrFileName(dir_, 0) + ".quarantine"));
}

// The headline robustness scenario: a latent flip in a topic no query is
// touching, healed by the background scrubber while the service answers
// live traffic on other topics; afterwards the sick topic serves
// golden-equal answers with no restart, and the service's stats surface
// the whole episode.
TEST_F(IndexScrubberTest, HealsUnderLiveTrafficThroughQueryService) {
  ServiceRequest probe;
  probe.query = Query{{0}, 6};
  probe.engine = QueryEngine::kIrr;
  SeedSetResult golden;
  {
    auto service = QueryService::Create(dir_, {});
    ASSERT_TRUE(service.ok());
    auto r = (*service)->Execute(probe);
    ASSERT_TRUE(r.ok());
    golden = std::move(*r);
  }

  FlipByte(RrFileName(dir_, 0), -128);

  auto service = QueryService::Create(dir_, {});
  ASSERT_TRUE(service.ok());
  IndexScrubberOptions sopts;
  sopts.pace_ms = 0;
  sopts.round_idle_ms = 5;
  IndexScrubber scrubber((*service)->cache(), sopts);
  scrubber.SetRebuilder(Rebuilder());
  scrubber.SetAdmitFn(
      [&service](TopicId t) { return (*service)->TopicHealthy(t); });
  (*service)->SetScrubStatsProvider(
      [&scrubber] { return scrubber.stats(); });

  scrubber.Start();
  // Live traffic on healthy topics while the scrubber works.
  ServiceRequest traffic;
  traffic.query = Query{{1, 2}, 6};
  traffic.engine = QueryEngine::kIrr;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (scrubber.stats().rebuilds == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    auto r = (*service)->Execute(traffic);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  scrubber.Stop();
  ASSERT_GE(scrubber.stats().rebuilds, 1u) << "scrub did not heal in time";

  // The healed topic answers golden-equal through the live service.
  auto healed = (*service)->Execute(probe);
  ASSERT_TRUE(healed.ok()) << healed.status();
  ExpectSameResult(golden, *healed);

  const ServiceStats stats = (*service)->stats();
  EXPECT_GE(stats.scrub_blocks, 1u);
  EXPECT_GE(stats.scrub_crc_failures, 1u);
  EXPECT_EQ(stats.scrub_quarantines, 1u);
  EXPECT_EQ(stats.scrub_rebuilds, 1u);

  (*service)->SetScrubStatsProvider(nullptr);
}

// Regression: Start()/Stop() from concurrent threads must not race on the
// scrub thread's lifecycle. Before lifecycle_mu_, two Start() calls could
// both observe a non-joinable thread_ and both launch-and-assign — the
// second assignment to a still-joinable std::thread is std::terminate —
// and a Stop() racing a Start() could return with the freshly launched
// thread still running.
TEST_F(IndexScrubberTest, ConcurrentStartStopChurnIsSafe) {
  auto cache = KeywordCache::Create(dir_, {});
  ASSERT_TRUE(cache.ok());
  IndexScrubberOptions sopts;
  sopts.pace_ms = 0;
  sopts.round_idle_ms = 1;
  IndexScrubber scrubber(*cache, sopts);

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&scrubber, t] {
      for (int i = 0; i < kIters; ++i) {
        if ((i + t) % 3 == 0) {
          scrubber.Stop();
        } else {
          scrubber.Start();
        }
      }
    });
  }
  for (std::thread& churner : churners) churner.join();
  scrubber.Stop();

  // The scrubber is still coherent after the churn: a synchronous pass
  // succeeds and finds the (uncorrupted) index clean.
  ASSERT_TRUE(scrubber.ScrubPass().ok());
  const IndexScrubberStats stats = scrubber.stats();
  EXPECT_GE(stats.passes, 1u);
  EXPECT_EQ(stats.crc_failures, 0u);
  EXPECT_EQ(stats.quarantines, 0u);
}

}  // namespace
}  // namespace kbtim
