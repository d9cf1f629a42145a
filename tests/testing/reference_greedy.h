// Counting greedy maximum coverage: the reference the library's CELF loop
// (coverage/celf_core.h) must match. Each round rescans every vertex's
// exact marginal coverage and takes the largest, ties toward the smaller
// id; when nothing covers a new set, the rest of the k slots are the
// smallest unselected ids. It shares no code with the CELF loop, so tests
// run the same sets through both and require identical seeds, marginals
// and totals.
#ifndef KBTIM_TESTS_TESTING_REFERENCE_GREEDY_H_
#define KBTIM_TESTS_TESTING_REFERENCE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "coverage/celf_core.h"
#include "coverage/rr_collection.h"

namespace kbtim {
namespace testing {

/// Greedy k-cover of `sets` over vertex ids < num_vertices.
inline MaxCoverResult ReferenceGreedy(const RrCollection& sets,
                                      VertexId num_vertices, uint32_t k) {
  // Vertex -> ids of the sets holding it, once per occurrence.
  std::vector<std::vector<RrId>> lists(num_vertices);
  for (size_t i = 0; i < sets.size(); ++i) {
    for (VertexId v : sets.Set(static_cast<RrId>(i))) {
      lists[v].push_back(static_cast<RrId>(i));
    }
  }
  std::vector<uint64_t> count(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) count[v] = lists[v].size();
  std::vector<char> covered(sets.size(), 0);
  std::vector<char> selected(num_vertices, 0);

  MaxCoverResult result;
  while (result.seeds.size() < k) {
    VertexId best = kInvalidVertex;
    uint64_t best_count = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (!selected[v] && count[v] > best_count) {
        best = v;
        best_count = count[v];
      }
    }
    if (best == kInvalidVertex) break;
    selected[best] = 1;
    result.seeds.push_back(best);
    result.marginal_coverage.push_back(best_count);
    result.total_covered += best_count;
    for (RrId rr : lists[best]) {
      if (covered[rr]) continue;
      covered[rr] = 1;
      for (VertexId u : sets.Set(rr)) --count[u];
    }
  }
  for (VertexId v = 0; v < num_vertices && result.seeds.size() < k; ++v) {
    if (!selected[v]) {
      selected[v] = 1;
      result.seeds.push_back(v);
      result.marginal_coverage.push_back(0);
    }
  }
  return result;
}

}  // namespace testing
}  // namespace kbtim

#endif  // KBTIM_TESTS_TESTING_REFERENCE_GREEDY_H_
