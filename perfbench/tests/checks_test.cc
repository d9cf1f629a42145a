// The benchmark's own tests: every output check must pass a correct
// answer and fail a corrupted one, and the forward simulation must agree
// with spreads computed by hand.
//
//   perfbench_checks_test        (exit 0 when every case holds)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "simulate.h"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

void ExpectPass(const std::string& verdict, const char* what) {
  if (!verdict.empty()) {
    std::fprintf(stderr, "FAILED: %s (%s)\n", what, verdict.c_str());
    ++g_failures;
  }
}

void ExpectFail(const std::string& verdict, const char* what) {
  Expect(!verdict.empty(), what);
}

kbtim::SeedSetResult GoodAnswer() {
  kbtim::SeedSetResult r;
  r.seeds = {7, 3, 11, 0};
  r.marginal_gains = {40.5, 20.25, 20.25, 1.0};
  r.estimated_influence = 82.0;
  return r;
}

void TestAnswerShape() {
  constexpr uint32_t kK = 4;
  constexpr kbtim::VertexId kN = 12;
  ExpectPass(perfbench::CheckAnswerShape(GoodAnswer(), kK, kN),
             "a correct answer passes the shape check");
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.seeds.pop_back();
    r.marginal_gains.pop_back();
    r.estimated_influence = 81.0;
    ExpectFail(perfbench::CheckAnswerShape(r, kK, kN), "too few seeds");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.seeds[2] = 7;
    ExpectFail(perfbench::CheckAnswerShape(r, kK, kN), "duplicate seed");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.seeds[1] = kN;
    ExpectFail(perfbench::CheckAnswerShape(r, kK, kN), "seed out of range");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.marginal_gains[3] = 30.0;
    r.estimated_influence = 111.0;
    ExpectFail(perfbench::CheckAnswerShape(r, kK, kN), "rising marginal gain");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.estimated_influence = 82.5;
    ExpectFail(perfbench::CheckAnswerShape(r, kK, kN),
               "gains that do not sum to the estimate");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.marginal_gains.pop_back();
    ExpectFail(perfbench::CheckAnswerShape(r, kK, kN), "gains not aligned");
  }
}

void TestSameAnswer() {
  const kbtim::SeedSetResult want = GoodAnswer();
  ExpectPass(perfbench::CheckSameAnswer(GoodAnswer(), want),
             "identical answers are the same");
  {
    kbtim::SeedSetResult r = GoodAnswer();
    std::swap(r.seeds[1], r.seeds[2]);
    ExpectFail(perfbench::CheckSameAnswer(r, want), "seed order differs");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.marginal_gains[1] = std::nextafter(r.marginal_gains[1], 100.0);
    ExpectFail(perfbench::CheckSameAnswer(r, want), "one gain off by 1 ulp");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.estimated_influence = std::nextafter(r.estimated_influence, 0.0);
    ExpectFail(perfbench::CheckSameAnswer(r, want), "estimate off by 1 ulp");
  }
  {
    kbtim::SeedSetResult r = GoodAnswer();
    r.degraded = true;
    ExpectFail(perfbench::CheckSameAnswer(r, want), "degraded answer");
  }
}

void TestEstimateAndApproximation() {
  perfbench::SpreadEstimate sim;
  sim.mean = 100.0;
  sim.std_error = 0.5;
  sim.runs = 2000;
  constexpr double kEps = 0.5;
  // ε/2 + 4 SE/mean = 0.25 + 0.02.
  Expect(std::fabs(perfbench::EstimateTolerance(sim, kEps) - 0.27) < 1e-12,
         "tolerance is eps/2 plus four standard errors");
  ExpectPass(perfbench::CheckEstimate(103.0, sim, kEps),
             "an estimate near the simulation passes");
  ExpectPass(perfbench::CheckEstimate(126.0, sim, kEps),
             "an estimate inside the tolerance passes");
  ExpectFail(perfbench::CheckEstimate(200.0, sim, kEps), "doubled estimate");
  ExpectFail(perfbench::CheckEstimate(50.0, sim, kEps), "halved estimate");
  perfbench::SpreadEstimate zero;
  ExpectFail(perfbench::CheckEstimate(1.0, zero, kEps), "zero spread");

  perfbench::SpreadEstimate answer = sim;
  answer.mean = 60.0;
  ExpectPass(perfbench::CheckApproximation(answer, sim, kEps),
             "an answer above (1-1/e-eps) of the reference passes");
  answer.mean = 5.0;
  ExpectFail(perfbench::CheckApproximation(answer, sim, kEps),
             "an answer far below the reference");
}

void TestSimulation() {
  // 0 -> 1 -> 2 -> 3 and 4 -> 3.
  const std::vector<kbtim::Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {4, 3}};
  auto graph = kbtim::Graph::FromEdges(5, edges);
  Expect(graph.ok(), "graph builds");
  if (!graph.ok()) return;
  const std::vector<double> weight = {1.0, 2.0, 4.0, 8.0, 16.0};
  const std::vector<kbtim::VertexId> seeds = {0};

  std::vector<float> certain(graph->num_edges(), 1.0f);
  auto sim = perfbench::CascadeSimulator::Create(*graph, certain);
  Expect(sim.ok(), "simulator builds");
  if (!sim.ok()) return;
  const perfbench::SpreadEstimate all = sim->Run(seeds, weight, 50, 1);
  Expect(all.mean == 15.0 && all.std_error == 0.0,
         "probability-1 edges reach every descendant and nothing else");

  std::vector<float> never(graph->num_edges(), 0.0f);
  auto none = perfbench::CascadeSimulator::Create(*graph, never);
  Expect(none.ok() && none->Run(seeds, weight, 50, 1).mean == 1.0,
         "probability-0 edges activate only the seeds");

  // In-edges of vertex 3 are ordered by source: (2 -> 3) then (4 -> 3).
  std::vector<float> half(graph->num_edges(), 1.0f);
  const auto [first, last] = graph->InEdgeRange(1);
  half[first] = 0.5f;
  auto coin = perfbench::CascadeSimulator::Create(*graph, half);
  Expect(coin.ok(), "simulator builds");
  if (!coin.ok()) return;
  const perfbench::SpreadEstimate got = coin->Run(seeds, weight, 20000, 7);
  // Seed 0 (1) plus, with probability 1/2, vertices 1, 2, 3 (14).
  Expect(std::fabs(got.mean - 8.0) < 4.0 * got.std_error + 1e-9,
         "a probability-1/2 edge halves what lies behind it");
  Expect(got.std_error > 0.0, "a random cascade has a standard error");

  std::vector<float> short_probs(graph->num_edges() - 1, 1.0f);
  Expect(!perfbench::CascadeSimulator::Create(*graph, short_probs).ok(),
         "misaligned edge probabilities are refused");
}

}  // namespace

int main() {
  TestAnswerShape();
  TestSameAnswer();
  TestEstimateAndApproximation();
  TestSimulation();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check test(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench checks: all cases hold\n");
  return 0;
}
