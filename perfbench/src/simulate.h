// Forward Monte-Carlo simulation of the independent cascade, written
// apart from kbtim's own propagation code so that it can check the
// engines' estimates instead of sharing their mistakes.
//
// Targeted spread of a seed set S for query Q is E[Σ_{v activated} φ(v,Q)]
// (paper Definition 4): each run flips every edge u -> v once, with the
// probability stored for v's in-edge from u, starting from S.
#ifndef PERFBENCH_SIMULATE_H_
#define PERFBENCH_SIMULATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/statusor.h"
#include "graph/graph.h"

namespace perfbench {

struct SpreadEstimate {
  double mean = 0.0;
  double std_error = 0.0;  ///< Standard error of the mean over the runs.
  uint32_t runs = 0;
};

class CascadeSimulator {
 public:
  /// `in_edge_probs` is aligned with graph.InEdgeRange; both must outlive
  /// the simulator. Fails when the arrays disagree in size.
  static kbtim::StatusOr<CascadeSimulator> Create(
      const kbtim::Graph& graph, const std::vector<float>& in_edge_probs);

  /// Runs `runs` cascades from `seeds`; `weight` has one entry per vertex.
  SpreadEstimate Run(std::span<const kbtim::VertexId> seeds,
                     std::span<const double> weight, uint32_t runs,
                     uint64_t seed) const;

 private:
  explicit CascadeSimulator(const kbtim::Graph& graph) : graph_(&graph) {}

  const kbtim::Graph* graph_;
  std::vector<float> out_probs_;  // aligned with graph.out_neighbors()
};

}  // namespace perfbench

#endif  // PERFBENCH_SIMULATE_H_
