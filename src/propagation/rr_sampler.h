// Reverse-reachable (RR) set sampling (paper Definition 2).
//
// An RR set for root v on a random live-edge world G' contains every vertex
// that reaches v in G'. Samplers hold per-instance scratch state and are NOT
// thread-safe; create one per worker thread. Since PR 5 the model samplers
// run skip-ahead kernels over a shared probability-bucketed reverse
// adjacency (see bucketed_adjacency.h); the per-edge scalar kernels remain
// available behind SetSkipSamplingEnabled(false).
#ifndef KBTIM_PROPAGATION_RR_SAMPLER_H_
#define KBTIM_PROPAGATION_RR_SAMPLER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "propagation/bucketed_adjacency.h"
#include "propagation/model.h"

namespace kbtim {

/// Interface for model-specific RR-set samplers.
class RrSampler {
 public:
  virtual ~RrSampler() = default;

  /// Clears *out and fills it with one random RR set for `root` (always
  /// including the root itself). Order is traversal order, not sorted.
  virtual void Sample(VertexId root, Rng& rng,
                      std::vector<VertexId>* out) = 0;
};

/// Process-wide switch between the skip-ahead kernels (geometric IC
/// skipping + alias-table LT steps) and the scalar per-edge fallbacks.
/// Defaults to skip-ahead; flip for ablation runs. Thread-safe (relaxed
/// atomic). Both settings sample the exact same RR-set distribution, but
/// the IC kernels consume the RNG stream differently, so a fixed seed draws
/// DIFFERENT (identically distributed) sets under each setting: pin one
/// setting when comparing golden seed sets. The LT kernels consume one
/// draw per walk step under both settings and coincide exactly whenever a
/// vertex's in-weights are uniform.
void SetSkipSamplingEnabled(bool enabled);
bool SkipSamplingEnabled();

/// Creates a sampler over a shared immutable bucketed adjacency — the
/// solver hot path: every sampler slot reuses ONE adjacency instead of
/// building per-slot state. The adjacency's model (IC probabilities vs LT
/// weights in its edge values) must match `model`.
std::unique_ptr<RrSampler> MakeRrSampler(
    PropagationModel model,
    std::shared_ptr<const BucketedAdjacency> adjacency);

/// Convenience overload that builds a private bucketed adjacency for this
/// one sampler (an O(E) build — fine for tests and one-shot tools; query
/// streams share one via the overload above). `in_edge_weights` must be
/// aligned with graph.InEdgeRange and outlive the sampler, as must the
/// graph.
std::unique_ptr<RrSampler> MakeRrSampler(
    PropagationModel model, const Graph& graph,
    const std::vector<float>& in_edge_weights);

}  // namespace kbtim

#endif  // KBTIM_PROPAGATION_RR_SAMPLER_H_
