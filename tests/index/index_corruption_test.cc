// Failure-injection tests: truncated or mangled index files must surface
// clean Corruption/IOError statuses, never crashes or garbage results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "expr/workload.h"
#include "index/index_builder.h"
#include "index/irr_index.h"
#include "index/rr_index.h"
#include "serving/query_service.h"

namespace kbtim {
namespace {

class IndexCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kbtim_corrupt_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);

    DatasetSpec spec;
    spec.name = "corrupt";
    spec.graph.num_vertices = 600;
    spec.graph.avg_degree = 4.0;
    spec.graph.seed = 5;
    spec.profiles.num_topics = 4;
    spec.profiles.seed = 6;
    auto env = Environment::Create(spec);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);

    IndexBuildOptions opts;
    opts.epsilon = 0.5;
    opts.max_k = 10;
    opts.seed = 7;
    opts.max_theta_per_keyword = 5000;
    opts.opt_estimate.pilot_initial = 256;
    IndexBuilder builder(env_->graph(), env_->tfidf(), env_->ic_probs(),
                         opts);
    ASSERT_TRUE(builder.Build(dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Truncate(const std::string& path, uint64_t keep) {
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::filesystem::resize_file(path, keep);
  }

  std::string dir_;
  std::unique_ptr<Environment> env_;
};

TEST_F(IndexCorruptionTest, OpenFailsWithoutMeta) {
  std::filesystem::remove(MetaFileName(dir_));
  EXPECT_FALSE(RrIndex::Open(dir_).ok());
  EXPECT_FALSE(IrrIndex::Open(dir_).ok());
}

TEST_F(IndexCorruptionTest, OpenFailsOnGarbageMeta) {
  std::ofstream(MetaFileName(dir_)) << "not an index";
  auto rr = RrIndex::Open(dir_);
  EXPECT_FALSE(rr.ok());
  EXPECT_TRUE(rr.status().IsCorruption());
}

TEST_F(IndexCorruptionTest, QueryFailsOnMissingRrFile) {
  auto index = RrIndex::Open(dir_);
  ASSERT_TRUE(index.ok());
  std::filesystem::remove(RrFileName(dir_, 0));
  auto result = index->Query(Query{{0}, 5});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(IndexCorruptionTest, QueryFailsOnTruncatedRrFile) {
  auto index = RrIndex::Open(dir_);
  ASSERT_TRUE(index.ok());
  Truncate(RrFileName(dir_, 0), 40);
  auto result = index->Query(Query{{0}, 5});
  EXPECT_FALSE(result.ok());
}

TEST_F(IndexCorruptionTest, QueryFailsOnMangledRrMagic) {
  auto index = RrIndex::Open(dir_);
  ASSERT_TRUE(index.ok());
  {
    std::fstream f(RrFileName(dir_, 0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  auto result = index->Query(Query{{0}, 5});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(IndexCorruptionTest, QueryFailsOnTruncatedListsFile) {
  auto index = RrIndex::Open(dir_);
  ASSERT_TRUE(index.ok());
  Truncate(ListsFileName(dir_, 0), 20);
  auto result = index->Query(Query{{0}, 5});
  EXPECT_FALSE(result.ok());
}

TEST_F(IndexCorruptionTest, IrrQueryFailsOnTruncatedFile) {
  const std::string path = IrrFileName(dir_, 0);
  const uint64_t size = std::filesystem::file_size(path);
  std::string pristine(size, '\0');
  std::ifstream(path, std::ios::binary).read(pristine.data(), size);
  // A cut inside the preamble, and one that leaves the preamble whole but
  // takes the tail of the last partition: both are corruption as soon as
  // the preamble loads, whether or not a query would reach the cut.
  for (const uint64_t keep : {uint64_t{30}, size - 64}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(pristine.data(), static_cast<std::streamsize>(size));
    Truncate(path, keep);

    auto index = IrrIndex::Open(dir_);
    ASSERT_TRUE(index.ok());
    auto result = index->Query(Query{{0}, 5});
    EXPECT_FALSE(result.ok());

    auto cache = KeywordCache::Create(dir_);
    ASSERT_TRUE(cache.ok());
    auto entry = (*cache)->GetIrrKeyword(0);
    EXPECT_TRUE(entry.status().IsCorruption()) << entry.status();
    EXPECT_GE((*cache)->stats().topic_invalidations, 1u);

    // The service drops the damaged keyword and answers from the rest.
    QueryServiceOptions options;
    options.num_workers = 1;
    options.cache.prefetch_threads = 0;
    auto service = QueryService::Create(dir_, options);
    ASSERT_TRUE(service.ok());
    ServiceRequest request;
    request.query = Query{{0, 1}, 5};
    request.engine = QueryEngine::kIrr;
    auto answer = (*service)->Execute(request);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->degraded);
    EXPECT_EQ(answer->dropped_keywords, std::vector<TopicId>{0});
  }
}

TEST_F(IndexCorruptionTest, IrrQueryFailsOnMangledMagic) {
  auto index = IrrIndex::Open(dir_);
  ASSERT_TRUE(index.ok());
  {
    std::fstream f(IrrFileName(dir_, 0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("ZZZZ", 4);
  }
  auto result = index->Query(Query{{0}, 5});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(IndexCorruptionTest, UntouchedTopicsStillWork) {
  // Corrupting topic 0 must not affect queries over other topics.
  Truncate(RrFileName(dir_, 0), 10);
  auto index = RrIndex::Open(dir_);
  ASSERT_TRUE(index.ok());
  auto result = index->Query(Query{{1, 2}, 5});
  EXPECT_TRUE(result.ok()) << result.status();
}

}  // namespace
}  // namespace kbtim
