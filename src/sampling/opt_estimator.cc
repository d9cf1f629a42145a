#include "sampling/opt_estimator.h"

#include <algorithm>

#include "coverage/flat_celf.h"
#include "coverage/rr_collection.h"

namespace kbtim {

StatusOr<double> EstimateOptLowerBound(const Graph& graph,
                                       RrSampler& sampler,
                                       const WeightedVertexSampler& roots,
                                       const OptEstimateOptions& options) {
  if (options.k == 0) {
    return Status::InvalidArgument("OPT estimation requires k >= 1");
  }
  if (options.pilot_initial == 0) {
    return Status::InvalidArgument("pilot_initial must be >= 1");
  }
  Rng rng(options.seed);
  RrCollection sets;
  std::vector<VertexId> scratch;
  CoverageWorkspace workspace;  // reused across the doubling rounds
  const double total_weight = roots.total_weight();

  double prev = -1.0;
  double estimate = 0.0;
  uint64_t target = options.pilot_initial;
  for (;;) {
    while (sets.size() < target) {
      sampler.Sample(roots.Sample(rng), rng, &scratch);
      sets.Add(scratch);
    }
    const MaxCoverResult cover =
        workspace.Solve(sets, graph.num_vertices(), options.k);
    estimate = static_cast<double>(cover.total_covered) /
               static_cast<double>(sets.size()) * total_weight;
    const bool stable =
        prev > 0.0 && std::abs(estimate - prev) <= options.rel_tol * estimate;
    if (stable || target >= options.pilot_max) break;
    prev = estimate;
    target *= 2;
  }
  double bound = estimate / (1.0 + std::max(0.0, options.slack));
  bound = std::max(bound, options.floor);
  if (bound <= 0.0) {
    return Status::FailedPrecondition(
        "OPT estimate is zero: weighted spread has no mass");
  }
  return bound;
}

}  // namespace kbtim
