// Offline index construction (paper Algorithms 1 and 3).
//
// For every keyword w the builder:
//   1. estimates a lower bound on OPT^{w}_K (or OPT^{w}_1 for the
//      conservative Lemma-3 bound) by pilot sampling,
//   2. derives θ_w (Lemma 4) or θ̂_w (Lemma 3),
//   3. samples θ_w RR sets with root distribution ps(v, w) ∝ tf_{w,v}
//      (discriminative WRIS, Eqn. 7),
//   4. writes R_w + L_w (the RR index) and/or the partitioned IRR
//      structures (IL_w, IR_w, IP_w) derived from the SAME samples, so
//      both indexes answer queries identically (Theorem 3).
// Keywords build in parallel on a thread pool, as in the paper's setup.
#ifndef KBTIM_INDEX_INDEX_BUILDER_H_
#define KBTIM_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "graph/graph.h"
#include "index/index_format.h"
#include "propagation/model.h"
#include "sampling/opt_estimator.h"
#include "topics/tfidf.h"

namespace kbtim {

/// Options controlling offline index construction.
struct IndexBuildOptions {
  /// ε of the (1 − 1/e − ε) guarantee the index provides.
  double epsilon = 0.5;

  /// K: maximum supported Q.k (paper default 100).
  uint32_t max_k = 100;

  /// Which θ bound to use (Lemma 4 compact vs Lemma 3 conservative).
  ThetaBoundKind bound = ThetaBoundKind::kCompact;

  /// Payload codec (kRaw reproduces Table 4's uncompressed mode).
  CodecKind codec = CodecKind::kPfor;

  /// Propagation model the RR sets are sampled under.
  PropagationModel model = PropagationModel::kIndependentCascade;

  /// δ: users per IRR partition (paper default 100).
  uint32_t partition_size = 100;

  /// Builder threads (keywords are built in parallel).
  uint32_t num_threads = 2;

  /// RNG seed; keyword w uses an independent fork, so results do not
  /// depend on the thread count.
  uint64_t seed = 77;

  /// Guardrail on θ per keyword; clipped with a warning.
  uint64_t max_theta_per_keyword = uint64_t{1} << 23;

  /// Which structures to emit.
  bool build_rr = true;
  bool build_irr = true;

  /// Pilot-estimation tuning (k / floor / seed overridden per keyword).
  OptEstimateOptions opt_estimate{};
};

/// Outcome of a build.
struct IndexBuildReport {
  double seconds = 0.0;
  /// Σ_w θ_w (Table 5 left column).
  uint64_t total_theta = 0;
  /// Mean RR-set size across all keywords (Table 5 right column).
  double mean_rr_set_size = 0.0;
  /// Bytes written per structure family (Tables 3/4).
  uint64_t rr_bytes = 0;
  uint64_t lists_bytes = 0;
  uint64_t irr_bytes = 0;
  uint64_t total_bytes = 0;
  /// θ per topic (diagnostics).
  std::vector<uint64_t> theta_per_topic;
};

/// Builds the disk indexes for every keyword in the topic space.
class IndexBuilder {
 public:
  /// All referenced objects must outlive the builder. `in_edge_weights`
  /// must match `options.model`.
  IndexBuilder(const Graph& graph, const TfIdfModel& tfidf,
               const std::vector<float>& in_edge_weights,
               IndexBuildOptions options);

  /// Builds into `dir` (created if missing) and writes index_meta.kbm.
  StatusOr<IndexBuildReport> Build(const std::string& dir);

  /// Re-derives and republishes exactly one keyword's files (rr_/lists_/
  /// irr_<topic>.dat) into an existing index directory, via the same
  /// atomic-rename publication as a full build. Sampling is seeded per
  /// keyword (Rng(seed).Fork(2w+1)), so a rebuild with the original build
  /// options reproduces the original files byte-for-byte and the existing
  /// index_meta.kbm stays valid — this is the scrubber's repair path. If
  /// the directory has a meta, the rebuilt θ/preambles are cross-checked
  /// against it and a mismatch (wrong options/seed) is an error.
  Status RebuildTopic(const std::string& dir, TopicId topic);

 private:
  const Graph& graph_;
  const TfIdfModel& tfidf_;
  const std::vector<float>& in_edge_weights_;
  IndexBuildOptions options_;
};

}  // namespace kbtim

#endif  // KBTIM_INDEX_INDEX_BUILDER_H_
