// CoverageWorkspace must match the reference greedy exactly (seeds,
// marginals, totals) on randomized inputs, across reuse, and on edge
// shapes (empty collections, k larger than the coverable set).
#include "coverage/flat_celf.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "testing/reference_greedy.h"

namespace kbtim {
namespace {

RrCollection RandomSets(Rng& rng, size_t num_sets, VertexId n,
                        uint32_t max_len) {
  RrCollection sets;
  std::vector<VertexId> members;
  for (size_t i = 0; i < num_sets; ++i) {
    members.clear();
    const uint32_t len = rng.NextU32Below(max_len + 1);
    for (uint32_t j = 0; j < len; ++j) {
      members.push_back(rng.NextU32Below(n));
    }
    sets.Add(members);
  }
  return sets;
}

void ExpectSameCover(const MaxCoverResult& a, const MaxCoverResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
  EXPECT_EQ(a.total_covered, b.total_covered);
}

TEST(CoverageWorkspaceTest, MatchesReferenceGreedyRandomized) {
  Rng rng(91);
  CoverageWorkspace ws;
  for (int round = 0; round < 30; ++round) {
    const VertexId n = 5 + rng.NextU32Below(200);
    const size_t num_sets = rng.NextU32Below(400);
    const uint32_t k = 1 + rng.NextU32Below(12);
    const RrCollection sets = RandomSets(rng, num_sets, n, 8);

    const MaxCoverResult ref = testing::ReferenceGreedy(sets, n, k);
    // One workspace reused across every round: stale scratch from the
    // previous (differently sized) problem must never leak through.
    ExpectSameCover(ref, ws.Solve(sets, n, k));
  }
}

TEST(CoverageWorkspaceTest, EmptyCollectionPadsToK) {
  CoverageWorkspace ws;
  RrCollection sets;
  const MaxCoverResult r = ws.Solve(sets, 10, 4);
  EXPECT_EQ(r.seeds, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(r.total_covered, 0u);
}

TEST(CoverageWorkspaceTest, KLargerThanCoverableSet) {
  CoverageWorkspace ws;
  RrCollection sets;
  sets.Add(std::vector<VertexId>{7});
  sets.Add(std::vector<VertexId>{7, 3});
  const MaxCoverResult r = ws.Solve(sets, 9, 5);
  ASSERT_EQ(r.seeds.size(), 5u);
  EXPECT_EQ(r.seeds[0], 7u);  // covers both sets
  EXPECT_EQ(r.marginal_coverage[0], 2u);
  // The rest are zero-marginal pads in ascending id order, skipping 7.
  EXPECT_EQ(r.seeds, (std::vector<VertexId>{7, 0, 1, 2, 3}));
  EXPECT_EQ(r.total_covered, 2u);
}

TEST(CoverageWorkspaceTest, TieBreaksTowardSmallerVertex) {
  CoverageWorkspace ws;
  RrCollection sets;
  sets.Add(std::vector<VertexId>{5});
  sets.Add(std::vector<VertexId>{2});
  // Both vertices cover exactly one set; vertex 2 must win round one.
  const MaxCoverResult r = ws.Solve(sets, 6, 2);
  EXPECT_EQ(r.seeds, (std::vector<VertexId>{2, 5}));
}

TEST(CoverageWorkspaceTest, PrunedShortlistStaysExactIncludingRestarts) {
  // Tiny shortlists force both the pruned fast path and the
  // abort-and-rebuild path; answers must match the reference either way.
  Rng rng(133);
  for (size_t shortlist : {size_t{1}, size_t{2}, size_t{8}}) {
    CoverageWorkspace ws;
    ws.set_prune_candidates(shortlist);
    for (int round = 0; round < 25; ++round) {
      const VertexId n = 20 + rng.NextU32Below(300);
      const size_t num_sets = 50 + rng.NextU32Below(500);
      // k near the coverable-vertex count maximizes floor hits (restarts).
      const uint32_t k = 1 + rng.NextU32Below(20);
      const RrCollection sets = RandomSets(rng, num_sets, n, 6);
      ExpectSameCover(testing::ReferenceGreedy(sets, n, k),
                      ws.Solve(sets, n, k));
    }
  }
}

TEST(CoverageWorkspaceTest, ShrinkRetainedCapsScratch) {
  CoverageWorkspace ws;
  Rng rng(17);
  const RrCollection big = RandomSets(rng, 5000, 300, 12);
  ASSERT_GT(big.total_items(), 10000u);
  const MaxCoverResult ref = testing::ReferenceGreedy(big, 300, 6);
  ExpectSameCover(ref, ws.Solve(big, 300, 6));

  ws.ShrinkRetained(1024);
  // Still correct after shrinking, on both small and re-grown problems.
  const RrCollection small = RandomSets(rng, 50, 40, 4);
  ExpectSameCover(testing::ReferenceGreedy(small, 40, 3),
                  ws.Solve(small, 40, 3));
  ExpectSameCover(ref, ws.Solve(big, 300, 6));
}

}  // namespace
}  // namespace kbtim
