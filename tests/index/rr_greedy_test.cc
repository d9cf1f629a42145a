// RunRrGreedy, the greedy of the RR index, its batches and the router,
// against the counting reference greedy over the union of the keywords'
// budgeted prefixes: the same seeds, gains, estimate and RR sets loaded,
// for blocks loaded past the query's budget, zero budgets, and k past the
// number of coverable vertices.
#include "index/rr_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "testing/reference_greedy.h"

namespace kbtim {
namespace {

/// Up to 300 RR sets of 1-6 distinct members drawn from [0, reach).
RrCollection RandomSets(Rng& rng, VertexId reach) {
  RrCollection sets;
  const uint32_t num_sets = 1 + rng.NextU32Below(300);
  std::vector<VertexId> members;
  for (uint32_t i = 0; i < num_sets; ++i) {
    members.clear();
    const uint32_t len = 1 + rng.NextU32Below(6);
    for (uint32_t j = 0; j < len; ++j) {
      members.push_back(rng.NextU32Below(reach));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    sets.Add(members);
  }
  return sets;
}

/// `sets` as KeywordCache decodes a keyword loaded at all of them: the
/// flattened sets and the inverted lists of the vertices they hold, keyed
/// by ascending vertex.
std::shared_ptr<const RrKeywordBlock> MakeBlock(const RrCollection& sets,
                                                VertexId num_vertices) {
  auto block = std::make_shared<RrKeywordBlock>();
  block->loaded_budget = sets.size();
  std::vector<std::vector<RrId>> lists(num_vertices);
  for (RrId i = 0; i < sets.size(); ++i) {
    for (VertexId v : sets.Set(i)) {
      block->set_items.push_back(v);
      lists[v].push_back(i);
    }
    block->set_offsets.push_back(block->set_items.size());
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (lists[v].empty()) continue;
    block->list_vertex.push_back(v);
    block->list_ids.insert(block->list_ids.end(), lists[v].begin(),
                           lists[v].end());
    block->list_offsets.push_back(block->list_ids.size());
  }
  return block;
}

TEST(RrGreedyTest, MatchesReferenceGreedyOverBudgetedPrefixes) {
  Rng rng(2015);
  int trimmed = 0;  // keywords whose budget is below the loaded prefix
  int zero = 0;     // keywords with budget 0
  int padded = 0;   // rounds where k passed the coverable vertices
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const VertexId n = 10 + rng.NextU32Below(150);
    const VertexId reach = 1 + rng.NextU32Below(n);
    const uint32_t num_keywords = 1 + rng.NextU32Below(4);
    Query query;
    query.k = 1 + rng.NextU32Below(n);
    QueryBudget budget;
    budget.phi_q = 0.5 + 100.0 * rng.NextDouble();
    std::unordered_map<TopicId, std::shared_ptr<const RrKeywordBlock>> loaded;
    RrCollection prefixes;  // the union the greedy runs over
    for (TopicId w = 0; w < num_keywords; ++w) {
      const RrCollection sets = RandomSets(rng, reach);
      // Keyword 0 keeps a budget so some keyword has one.
      const uint64_t tw = w > 0 && rng.NextU32Below(4) == 0
                              ? 0
                              : 1 + rng.NextU32Below(
                                        static_cast<uint32_t>(sets.size()));
      query.topics.push_back(w);
      budget.per_keyword.emplace_back(w, tw);
      budget.theta_q = std::max(budget.theta_q, tw);
      loaded.emplace(w, MakeBlock(sets, n));
      for (RrId i = 0; i < tw; ++i) prefixes.Add(sets.Set(i));
      trimmed += tw > 0 && tw < sets.size();
      zero += tw == 0;
    }

    const SeedSetResult got = RunRrGreedy(query, budget, loaded, n);
    const MaxCoverResult want =
        testing::ReferenceGreedy(prefixes, n, query.k);
    const double scale =
        budget.phi_q / static_cast<double>(prefixes.size());
    EXPECT_EQ(got.seeds, want.seeds);
    ASSERT_EQ(got.marginal_gains.size(), want.marginal_coverage.size());
    for (size_t i = 0; i < got.marginal_gains.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.marginal_gains[i],
                       static_cast<double>(want.marginal_coverage[i]) * scale)
          << "seed " << i;
    }
    EXPECT_DOUBLE_EQ(got.estimated_influence,
                     static_cast<double>(want.total_covered) * scale);
    EXPECT_EQ(got.stats.rr_sets_loaded, prefixes.size());
    EXPECT_EQ(got.stats.theta, budget.theta_q);
    padded += std::count(want.marginal_coverage.begin(),
                         want.marginal_coverage.end(), 0u) > 0;
  }
  EXPECT_GT(trimmed, 0);
  EXPECT_GT(zero, 0);
  EXPECT_GT(padded, 0);
}

}  // namespace
}  // namespace kbtim
