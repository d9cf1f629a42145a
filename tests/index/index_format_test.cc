#include "index/index_format.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace kbtim {
namespace {

IndexMeta SampleMeta() {
  IndexMeta meta;
  meta.model = PropagationModel::kLinearThreshold;
  meta.codec = CodecKind::kPfor;
  meta.bound = ThetaBoundKind::kCompact;
  meta.epsilon = 0.42;
  meta.max_k = 64;
  meta.partition_size = 25;
  meta.num_vertices = 1234;
  meta.num_topics = 3;
  meta.has_rr = true;
  meta.has_irr = false;
  meta.topics = {
      {100, 1.5, 2.5, 0.5, 77},
      {0, 0.0, 0.0, 0.0, 0},
      {999, 10.0, 20.0, 4.0, 1234},
  };
  return meta;
}

class IndexFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("kbtim_format_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(IndexFormatTest, MetaRoundTrip) {
  const IndexMeta meta = SampleMeta();
  const std::string path = MetaFileName(dir_.string());
  ASSERT_TRUE(WriteIndexMeta(meta, path).ok());
  auto loaded = ReadIndexMeta(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->model, meta.model);
  EXPECT_EQ(loaded->codec, meta.codec);
  EXPECT_EQ(loaded->bound, meta.bound);
  EXPECT_DOUBLE_EQ(loaded->epsilon, meta.epsilon);
  EXPECT_EQ(loaded->max_k, meta.max_k);
  EXPECT_EQ(loaded->partition_size, meta.partition_size);
  EXPECT_EQ(loaded->num_vertices, meta.num_vertices);
  EXPECT_EQ(loaded->has_rr, meta.has_rr);
  EXPECT_EQ(loaded->has_irr, meta.has_irr);
  ASSERT_EQ(loaded->topics.size(), 3u);
  EXPECT_EQ(loaded->topics[0].theta, 100u);
  EXPECT_DOUBLE_EQ(loaded->topics[2].phi, 20.0);
  EXPECT_EQ(loaded->topics[2].irr_preamble, 1234u);
}

TEST_F(IndexFormatTest, MetaRejectsBadMagicAndTruncation) {
  const std::string path = MetaFileName(dir_.string());
  std::ofstream(path) << "garbage data here";
  EXPECT_TRUE(ReadIndexMeta(path).status().IsCorruption());

  ASSERT_TRUE(WriteIndexMeta(SampleMeta(), path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 10);
  EXPECT_TRUE(ReadIndexMeta(path).status().IsCorruption());
}

TEST(QueryBudgetTest, Example5Ratios) {
  // θ_music = 9, θ_book = 6 with φ-mass ratio 9:4 -> θ^Q = 13, budgets 9/4.
  IndexMeta meta;
  meta.max_k = 10;
  meta.num_topics = 2;
  meta.topics.resize(2);
  meta.topics[0].theta = 9;
  meta.topics[0].phi = 9.0;
  meta.topics[1].theta = 6;
  meta.topics[1].phi = 4.0;
  auto budget = ComputeQueryBudget(meta, Query{{0, 1}, 2});
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->theta_q, 13u);
  ASSERT_EQ(budget->per_keyword.size(), 2u);
  EXPECT_EQ(budget->per_keyword[0].second, 9u);
  EXPECT_EQ(budget->per_keyword[1].second, 4u);
}

TEST(QueryBudgetTest, BudgetsNeverExceedStoredTheta) {
  IndexMeta meta;
  meta.max_k = 10;
  meta.num_topics = 2;
  meta.topics.resize(2);
  meta.topics[0].theta = 1000;
  meta.topics[0].phi = 1.0;
  meta.topics[1].theta = 10;
  meta.topics[1].phi = 99.0;
  auto budget = ComputeQueryBudget(meta, Query{{0, 1}, 1});
  ASSERT_TRUE(budget.ok());
  for (const auto& [topic, tw] : budget->per_keyword) {
    EXPECT_LE(tw, meta.topics[topic].theta);
  }
}

TEST(QueryBudgetTest, ValidationErrors) {
  IndexMeta meta;
  meta.max_k = 5;
  meta.num_topics = 2;
  meta.topics.resize(2);
  meta.topics[0].theta = 10;
  meta.topics[0].phi = 1.0;
  EXPECT_FALSE(ComputeQueryBudget(meta, Query{{}, 1}).ok());
  EXPECT_FALSE(ComputeQueryBudget(meta, Query{{0}, 0}).ok());
  EXPECT_FALSE(ComputeQueryBudget(meta, Query{{0}, 6}).ok());   // k > K
  EXPECT_FALSE(ComputeQueryBudget(meta, Query{{7}, 1}).ok());   // bad topic
  EXPECT_FALSE(ComputeQueryBudget(meta, Query{{1}, 1}).ok());   // no mass
  EXPECT_FALSE(ComputeQueryBudget(meta, Query{{0, 0}, 1}).ok());  // dup
}

TEST(QueryBudgetTest, ZeroMassKeywordGetsZeroBudget) {
  IndexMeta meta;
  meta.max_k = 5;
  meta.num_topics = 2;
  meta.topics.resize(2);
  meta.topics[0].theta = 10;
  meta.topics[0].phi = 1.0;
  meta.topics[1].theta = 0;
  meta.topics[1].phi = 0.0;
  auto budget = ComputeQueryBudget(meta, Query{{0, 1}, 1});
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->per_keyword[1].second, 0u);
  EXPECT_GT(budget->per_keyword[0].second, 0u);
}

TEST(QueryBudgetTest, RefusesMoreSetsThanThirtyTwoBitsCount) {
  // The greedy counts RR sets in 32 bits: θ^Q = 2^32-1 is the largest
  // budget a query may have.
  constexpr uint64_t kMax = 0xFFFFFFFFu;
  IndexMeta meta;
  meta.max_k = 5;
  meta.num_topics = 2;
  meta.topics.resize(2);
  for (auto& t : meta.topics) {
    t.theta = kMax;
    t.phi = 1.0;
  }
  auto one = ComputeQueryBudget(meta, Query{{0}, 1});
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(one->theta_q, kMax);
  EXPECT_EQ(one->per_keyword[0].second, kMax);
  // Equal φ: θ^Q = 2θ_w, about 2^33.
  auto two = ComputeQueryBudget(meta, Query{{0, 1}, 1});
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument)
      << two.status();

  // θ^Q stays below 2^32-1, but ten keywords of almost no mass each get
  // the one-set minimum, and Σ θ^Q_w passes it.
  meta.num_topics = 11;
  meta.topics.assign(11, {});
  meta.topics[0].theta = kMax - 4;
  meta.topics[0].phi = 1.0;
  Query query{{0}, 1};
  for (TopicId w = 1; w < 11; ++w) {
    meta.topics[w].theta = 1;
    meta.topics[w].phi = 1e-12;
    query.topics.push_back(w);
  }
  auto tiny = ComputeQueryBudget(meta, query);
  EXPECT_EQ(tiny.status().code(), StatusCode::kInvalidArgument)
      << tiny.status();
}

TEST(IndexFormatTest2, FileNamesAreDistinct) {
  EXPECT_NE(RrFileName("d", 1), ListsFileName("d", 1));
  EXPECT_NE(RrFileName("d", 1), IrrFileName("d", 1));
  EXPECT_NE(RrFileName("d", 1), RrFileName("d", 2));
  EXPECT_EQ(MetaFileName("d"), "d/index_meta.kbm");
}

}  // namespace
}  // namespace kbtim
