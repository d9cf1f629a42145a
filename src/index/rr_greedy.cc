#include "index/rr_greedy.h"

#include <utility>

namespace kbtim {

void RrCover::AddCounts(std::vector<uint32_t>& count) const {
  for (size_t k = 0; k < size_; ++k) {
    const Keyword& kw = keywords_[k];
    const RrKeywordBlock& b = *kw.block;
    for (size_t i = 0; i + 1 < b.list_offsets.size(); ++i) {
      const RrId* begin = b.list_ids.data() + b.list_offsets[i];
      const RrId* end = b.list_ids.data() + b.list_offsets[i + 1];
      if (kw.budget < b.loaded_budget) {
        end = std::lower_bound(begin, end, static_cast<RrId>(kw.budget));
      }
      count[b.list_vertex[i]] += static_cast<uint32_t>(end - begin);
    }
  }
}

SeedSetResult RrGreedyAnswer(const QueryBudget& budget, MaxCoverResult cover) {
  uint64_t total_loaded = 0;
  for (const auto& [topic, tw] : budget.per_keyword) total_loaded += tw;
  SeedSetResult result;
  const double scale =
      budget.phi_q / static_cast<double>(std::max<uint64_t>(1, total_loaded));
  result.seeds = std::move(cover.seeds);
  for (uint64_t gain : cover.marginal_coverage) {
    result.marginal_gains.push_back(static_cast<double>(gain) * scale);
  }
  result.estimated_influence =
      static_cast<double>(cover.total_covered) * scale;
  result.stats.theta = budget.theta_q;
  result.stats.rr_sets_loaded = total_loaded;
  return result;
}

SeedSetResult RunRrGreedy(
    const Query& query, const QueryBudget& budget,
    const std::unordered_map<TopicId,
                             std::shared_ptr<const RrKeywordBlock>>& loaded,
    VertexId num_vertices) {
  RrCover keywords;
  for (const auto& [topic, tw] : budget.per_keyword) {
    if (tw > 0) keywords.Add(loaded.at(topic), tw);
  }
  // A count is at most Σ θ^Q_w, which ComputeQueryBudget keeps below 2^32.
  std::vector<uint32_t> count(num_vertices, 0);
  keywords.AddCounts(count);
  std::vector<uint64_t> heap, selected;
  MaxCoverResult cover = RunCelf(
      num_vertices, query.k, count,
      [&](VertexId v) { keywords.Cover(v, [&](VertexId u) { --count[u]; }); },
      heap, selected);
  return RrGreedyAnswer(budget, std::move(cover));
}

}  // namespace kbtim
