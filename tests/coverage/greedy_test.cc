// The library's greedy (CoverageWorkspace over the shared CELF loop) on
// hand examples, against the counting reference greedy on random sets, and
// against the brute-force optimum: submodular gains and the (1 - 1/e)
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "coverage/flat_celf.h"
#include "testing/reference_greedy.h"

namespace kbtim {
namespace {

RrCollection RandomSets(uint64_t seed, uint32_t num_sets,
                        uint32_t num_vertices, uint32_t max_len) {
  Rng rng(seed);
  RrCollection sets;
  for (uint32_t i = 0; i < num_sets; ++i) {
    std::vector<VertexId> members;
    const uint32_t len = 1 + rng.NextU32Below(max_len);
    for (uint32_t j = 0; j < len; ++j) {
      members.push_back(rng.NextU32Below(num_vertices));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    sets.Add(members);
  }
  return sets;
}

/// Brute-force max coverage over all C(n, k) seed sets.
uint64_t BruteForceBestCoverage(const RrCollection& sets,
                                uint32_t num_vertices, uint32_t k) {
  std::vector<VertexId> combo(k);
  for (uint32_t i = 0; i < k; ++i) combo[i] = i;
  uint64_t best = 0;
  for (;;) {
    uint64_t covered = 0;
    for (size_t s = 0; s < sets.size(); ++s) {
      const auto members = sets.Set(static_cast<RrId>(s));
      bool hit = false;
      for (VertexId v : combo) {
        if (std::binary_search(members.begin(), members.end(), v)) {
          hit = true;
          break;
        }
      }
      if (hit) ++covered;
    }
    best = std::max(best, covered);
    int i = static_cast<int>(k) - 1;
    while (i >= 0 && combo[i] == num_vertices - k + i) --i;
    if (i < 0) break;
    ++combo[i];
    for (uint32_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
  }
  return best;
}

TEST(GreedyTest, HandExample) {
  // Paper Example 2: Gd = {b,d,f}, Ge = {e}, Gd = {d,f}, Gb = {a,b,e} with
  // a=0..g=6. The optimum ({e,f} = {4,5}) covers all four sets; greedy with
  // smallest-id tie-breaking picks b first and covers three — within the
  // (1 - 1/e) guarantee (4 · 0.632 = 2.53).
  RrCollection sets;
  sets.Add(std::vector<VertexId>{1, 3, 5});
  sets.Add(std::vector<VertexId>{4});
  sets.Add(std::vector<VertexId>{3, 5});
  sets.Add(std::vector<VertexId>{0, 1, 4});
  const auto result = CoverageWorkspace().Solve(sets, 7, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 1u);  // b: covers sets 0 and 3, smallest id
  EXPECT_GE(result.total_covered, 3u);
  EXPECT_EQ(BruteForceBestCoverage(sets, 7, 2), 4u);  // {e,f} optimum
}

TEST(GreedyTest, TieBreaksTowardSmallerId) {
  RrCollection sets;
  sets.Add(std::vector<VertexId>{2});
  sets.Add(std::vector<VertexId>{5});
  const auto result = CoverageWorkspace().Solve(sets, 6, 1);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 2u);  // both cover 1 set; lower id wins
}

TEST(GreedyTest, PadsWhenCoverageExhausted) {
  RrCollection sets;
  sets.Add(std::vector<VertexId>{0});
  const auto result = CoverageWorkspace().Solve(sets, 4, 3);
  ASSERT_EQ(result.seeds.size(), 3u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.marginal_coverage[1], 0u);
  EXPECT_EQ(result.marginal_coverage[2], 0u);
}

struct GreedyCase {
  uint64_t seed;
  uint32_t num_sets;
  uint32_t num_vertices;
  uint32_t max_len;
  uint32_t k;
};

class GreedyPropertyTest : public ::testing::TestWithParam<GreedyCase> {};

TEST_P(GreedyPropertyTest, CelfMatchesCountingGreedyScores) {
  const GreedyCase& c = GetParam();
  const RrCollection sets =
      RandomSets(c.seed, c.num_sets, c.num_vertices, c.max_len);
  const auto counting = testing::ReferenceGreedy(sets, c.num_vertices, c.k);
  const auto celf = CoverageWorkspace().Solve(sets, c.num_vertices, c.k);
  // Identical tie-breaking makes the two algorithms equivalent.
  EXPECT_EQ(counting.seeds, celf.seeds);
  EXPECT_EQ(counting.marginal_coverage, celf.marginal_coverage);
  EXPECT_EQ(counting.total_covered, celf.total_covered);
}

TEST_P(GreedyPropertyTest, MarginalGainsAreNonIncreasing) {
  const GreedyCase& c = GetParam();
  const RrCollection sets =
      RandomSets(c.seed, c.num_sets, c.num_vertices, c.max_len);
  const auto result = CoverageWorkspace().Solve(sets, c.num_vertices, c.k);
  for (size_t i = 1; i < result.marginal_coverage.size(); ++i) {
    EXPECT_LE(result.marginal_coverage[i], result.marginal_coverage[i - 1])
        << "submodularity violated at seed " << i;
  }
}

TEST_P(GreedyPropertyTest, AchievesOneMinusOneOverEOfOptimum) {
  const GreedyCase& c = GetParam();
  if (c.num_vertices > 12 || c.k > 3) GTEST_SKIP() << "brute force too big";
  const RrCollection sets =
      RandomSets(c.seed, c.num_sets, c.num_vertices, c.max_len);
  const auto result = CoverageWorkspace().Solve(sets, c.num_vertices, c.k);
  const uint64_t opt = BruteForceBestCoverage(sets, c.num_vertices, c.k);
  EXPECT_GE(static_cast<double>(result.total_covered),
            (1.0 - 1.0 / 2.718281828) * static_cast<double>(opt));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyPropertyTest,
    ::testing::Values(GreedyCase{1, 50, 10, 4, 2},
                      GreedyCase{2, 100, 12, 5, 3},
                      GreedyCase{3, 200, 30, 6, 5},
                      GreedyCase{4, 500, 50, 8, 10},
                      GreedyCase{5, 1000, 100, 10, 20},
                      GreedyCase{6, 64, 10, 2, 3},
                      GreedyCase{7, 2000, 40, 3, 8}));

}  // namespace
}  // namespace kbtim
