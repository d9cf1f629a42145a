#include "simulate.h"

#include <cmath>

namespace perfbench {
namespace {

/// splitmix64: small, fast and independent of kbtim's generator.
class SimRng {
 public:
  explicit SimRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

}  // namespace

kbtim::StatusOr<CascadeSimulator> CascadeSimulator::Create(
    const kbtim::Graph& graph, const std::vector<float>& in_edge_probs) {
  if (in_edge_probs.size() != graph.num_edges()) {
    return kbtim::Status::InvalidArgument(
        "edge probabilities do not match the graph");
  }
  CascadeSimulator sim(graph);
  // Out-lists are sorted by target, so walking targets in ascending order
  // visits each source's out-edges in stored order: one cursor per source
  // places every in-edge probability on its out-edge.
  const auto& out_offsets = graph.out_offsets();
  std::vector<uint64_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
  sim.out_probs_.resize(graph.num_edges());
  for (kbtim::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto [first, last] = graph.InEdgeRange(v);
    for (uint64_t e = first; e < last; ++e) {
      const kbtim::VertexId u = graph.in_neighbors()[e];
      const uint64_t pos = cursor[u]++;
      if (graph.out_neighbors()[pos] != v) {
        return kbtim::Status::Internal("in/out adjacency disagree");
      }
      sim.out_probs_[pos] = in_edge_probs[e];
    }
  }
  return sim;
}

SpreadEstimate CascadeSimulator::Run(std::span<const kbtim::VertexId> seeds,
                                     std::span<const double> weight,
                                     uint32_t runs, uint64_t seed) const {
  const kbtim::Graph& g = *graph_;
  std::vector<uint32_t> stamp(g.num_vertices(), 0);
  std::vector<kbtim::VertexId> frontier;
  SimRng rng(seed);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (uint32_t run = 1; run <= runs; ++run) {
    frontier.clear();
    double spread = 0.0;
    for (kbtim::VertexId s : seeds) {
      if (stamp[s] == run) continue;
      stamp[s] = run;
      spread += weight[s];
      frontier.push_back(s);
    }
    for (size_t head = 0; head < frontier.size(); ++head) {
      const kbtim::VertexId u = frontier[head];
      const uint64_t first = g.out_offsets()[u];
      const uint64_t last = g.out_offsets()[u + 1];
      for (uint64_t e = first; e < last; ++e) {
        const kbtim::VertexId v = g.out_neighbors()[e];
        if (stamp[v] == run) continue;
        if (rng.Uniform() < out_probs_[e]) {
          stamp[v] = run;
          spread += weight[v];
          frontier.push_back(v);
        }
      }
    }
    sum += spread;
    sum_sq += spread * spread;
  }
  SpreadEstimate out;
  out.runs = runs;
  if (runs == 0) return out;
  const double n = static_cast<double>(runs);
  out.mean = sum / n;
  const double var = runs > 1 ? (sum_sq - n * out.mean * out.mean) / (n - 1)
                              : 0.0;
  out.std_error = std::sqrt(var > 0.0 ? var / n : 0.0);
  return out;
}

}  // namespace perfbench
