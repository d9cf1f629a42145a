#include "index/rr_greedy.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "coverage/celf_core.h"

namespace kbtim {

SeedSetResult RunRrGreedy(
    const Query& query, const QueryBudget& budget,
    const std::unordered_map<TopicId,
                             std::shared_ptr<const RrKeywordBlock>>& loaded,
    VertexId num_vertices) {
  // Per-query coverage bitsets sized to each keyword's budget.
  struct QueryKeyword {
    const RrKeywordBlock* data;
    uint64_t budget;
    std::vector<uint64_t> covered;
  };
  std::vector<QueryKeyword> keywords;
  uint64_t total_loaded = 0;
  for (const auto& [topic, tw] : budget.per_keyword) {
    if (tw == 0) continue;
    const auto it = loaded.find(topic);
    keywords.push_back({it->second.get(), tw,
                        std::vector<uint64_t>((tw + 63) / 64, 0)});
    total_loaded += tw;
  }

  // A count is at most Σ θ^Q_w, which ComputeQueryBudget keeps below 2^32.
  std::vector<uint32_t> count(num_vertices, 0);
  for (const auto& qk : keywords) {
    const RrKeywordBlock& kw = *qk.data;
    for (size_t i = 0; i + 1 < kw.list_offsets.size(); ++i) {
      const RrId* begin = kw.list_ids.data() + kw.list_offsets[i];
      const RrId* end = kw.list_ids.data() + kw.list_offsets[i + 1];
      if (qk.budget < kw.loaded_budget) {
        end = std::lower_bound(begin, end,
                               static_cast<RrId>(qk.budget));
      }
      count[kw.list_vertex[i]] += static_cast<uint32_t>(end - begin);
    }
  }
  std::vector<uint64_t> heap, selected;
  MaxCoverResult cover = RunCelf(
      num_vertices, query.k, count,
      [&](VertexId v) {
        for (auto& qk : keywords) {
          for (RrId rr : qk.data->ListOf(v, qk.budget)) {
            if (TestAndSetBit(qk.covered, rr)) continue;
            for (VertexId u : qk.data->SetMembers(rr)) --count[u];
          }
        }
      },
      heap, selected);

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

}  // namespace kbtim
