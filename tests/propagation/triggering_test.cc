// Tests for the general triggering model: the classic models fall out as
// special cases, a third instance works end to end through the RIS
// machinery, and the RIS identity E[F_θ(S)/θ]·n = E[I(S)] holds for an
// arbitrary triggering distribution — the paper's §6.6 generality claim.
#include "propagation/triggering.h"

#include <gtest/gtest.h>

#include "coverage/flat_celf.h"
#include "coverage/rr_collection.h"
#include "graph/generators.h"
#include "propagation/exact_spread.h"

namespace kbtim {
namespace {

constexpr VertexId b = 1, e = 4, g = 6;

TEST(TriggeringTest, IcInstanceMatchesDedicatedSamplerDistribution) {
  // P(e ∈ RR(b)) = 0.75 on the Figure-1 graph (see rr_sampler_test).
  const Figure1Graph fig = MakeFigure1Graph();
  const IcTriggering ic(fig.in_edge_prob);
  TriggeringRrSampler sampler(fig.graph, ic);
  Rng rng(1);
  std::vector<VertexId> rr;
  constexpr int kSamples = 40000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    sampler.Sample(b, rng, &rr);
    if (std::find(rr.begin(), rr.end(), e) != rr.end()) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.75, 0.01);
}

TEST(TriggeringTest, LtInstanceMatchesDedicatedSamplerDistribution) {
  // With uniform 1/indeg LT weights, P(e ∈ RR(b)) = 2/3 (see
  // rr_sampler_test) and the walk yields at most one parent per vertex.
  const Figure1Graph fig = MakeFigure1Graph();
  const std::vector<float> weights = UniformIcProbabilities(fig.graph);
  const LtTriggering lt(weights);
  TriggeringRrSampler sampler(fig.graph, lt);
  Rng rng(2);
  std::vector<VertexId> rr;
  constexpr int kSamples = 40000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    sampler.Sample(b, rng, &rr);
    if (std::find(rr.begin(), rr.end(), e) != rr.end()) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 2.0 / 3.0, 0.01);
}

TEST(TriggeringTest, UncappedCappedIcEqualsPlainIc) {
  const Figure1Graph fig = MakeFigure1Graph();
  const CappedIcTriggering uncapped(fig.in_edge_prob, ~0u);
  const std::vector<VertexId> seeds = {e, g};
  SpreadEstimateOptions opts;
  opts.num_simulations = 150000;
  opts.seed = 3;
  const double triggering =
      EstimateTriggeringSpread(fig.graph, uncapped, seeds, opts);
  auto exact = ExactExpectedSpread(fig.graph,
                                   PropagationModel::kIndependentCascade,
                                   fig.in_edge_prob, seeds);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(triggering, *exact, 0.03);
}

TEST(TriggeringTest, CapReducesSpreadMonotonically) {
  SocialGraphOptions gopts;
  gopts.num_vertices = 2000;
  gopts.avg_degree = 10.0;
  gopts.seed = 4;
  auto sg = GenerateSocialGraph(gopts);
  ASSERT_TRUE(sg.ok());
  const std::vector<float> probs = UniformIcProbabilities(sg->graph);
  const std::vector<VertexId> seeds = {0, 1, 2, 3, 4};
  SpreadEstimateOptions opts;
  opts.num_simulations = 3000;
  opts.seed = 5;
  double prev = -1.0;
  for (uint32_t cap : {0u, 1u, 2u, ~0u}) {
    const CappedIcTriggering capped(probs, cap);
    const double spread =
        EstimateTriggeringSpread(sg->graph, capped, seeds, opts);
    if (prev >= 0.0) {
      EXPECT_GE(spread, prev * 0.98) << "cap " << cap;  // MC tolerance
    }
    prev = spread;
  }
  // cap = 0 means nobody can be influenced: spread == |seeds|.
  const CappedIcTriggering zero(probs, 0);
  EXPECT_DOUBLE_EQ(EstimateTriggeringSpread(sg->graph, zero, seeds, opts),
                   5.0);
}

TEST(TriggeringTest, CappedSetsRespectTheCap) {
  const Figure1Graph fig = MakeFigure1Graph();
  const CappedIcTriggering capped(fig.in_edge_prob, 1);
  Rng rng(6);
  std::vector<uint32_t> positions;
  for (VertexId v = 0; v < fig.graph.num_vertices(); ++v) {
    for (int i = 0; i < 200; ++i) {
      capped.Sample(fig.graph, v, rng, &positions);
      ASSERT_LE(positions.size(), 1u);
      for (uint32_t pos : positions) {
        ASSERT_LT(pos, fig.graph.InDegree(v));
      }
    }
  }
}

TEST(TriggeringTest, RisIdentityHoldsForNovelTriggeringModel) {
  // The generality claim: sample uniform-root RR sets under capped-IC,
  // then F_θ(S)/θ · |V| must estimate the forward-simulated E[I(S)] of
  // the SAME model — no IC/LT-specific machinery involved.
  SocialGraphOptions gopts;
  gopts.num_vertices = 500;
  gopts.avg_degree = 6.0;
  gopts.seed = 7;
  auto sg = GenerateSocialGraph(gopts);
  ASSERT_TRUE(sg.ok());
  const std::vector<float> probs = UniformIcProbabilities(sg->graph);
  const CappedIcTriggering capped(probs, 2);

  TriggeringRrSampler sampler(sg->graph, capped);
  Rng rng(8);
  RrCollection sets;
  std::vector<VertexId> scratch;
  constexpr uint64_t kTheta = 60000;
  for (uint64_t i = 0; i < kTheta; ++i) {
    sampler.Sample(rng.NextU32Below(500), rng, &scratch);
    sets.Add(scratch);
  }
  const MaxCoverResult cover = CoverageWorkspace().Solve(sets, 500, 5);
  const double ris_estimate = static_cast<double>(cover.total_covered) /
                              static_cast<double>(kTheta) * 500.0;

  SpreadEstimateOptions opts;
  opts.num_simulations = 30000;
  opts.seed = 9;
  const double simulated =
      EstimateTriggeringSpread(sg->graph, capped, cover.seeds, opts);
  EXPECT_NEAR(ris_estimate, simulated, 0.05 * simulated);
}

TEST(TriggeringTest, WeightedTriggeringSpreadUsesVertexWeights) {
  const Figure1Graph fig = MakeFigure1Graph();
  const IcTriggering ic(fig.in_edge_prob);
  const std::vector<double> phi = {0.5, 0.3, 0.6, 0.5, 0.0, 0.0, 0.0};
  const std::vector<VertexId> seeds = {b, e};
  SpreadEstimateOptions opts;
  opts.num_simulations = 150000;
  opts.seed = 10;
  const double weighted =
      EstimateTriggeringSpread(fig.graph, ic, seeds, opts, phi);
  auto exact = ExactExpectedSpread(fig.graph,
                                   PropagationModel::kIndependentCascade,
                                   fig.in_edge_prob, seeds, phi);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(weighted, *exact, 0.02);
}

}  // namespace
}  // namespace kbtim
