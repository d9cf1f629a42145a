// Output checks the benchmark applies to the answers it collected. They
// run after the measured phase, so no timing includes them. Each returns
// an empty string when the answer passes and a description otherwise.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "sampling/solver_result.h"
#include "simulate.h"

namespace perfbench {

/// k distinct seeds below `num_vertices`, one marginal gain per seed,
/// gains non-increasing, and gains summing to the estimate.
std::string CheckAnswerShape(const kbtim::SeedSetResult& answer, uint32_t k,
                             kbtim::VertexId num_vertices);

/// Same seeds in the same order, and bit-identical marginal gains and
/// estimate (Theorem 3 for IRR against RR; the router's contract for a
/// routed answer against in-process RrIndex::Query).
std::string CheckSameAnswer(const kbtim::SeedSetResult& got,
                            const kbtim::SeedSetResult& want);

/// Relative tolerance of an estimate against a simulated spread: the
/// index and WRIS θ bounds hold the estimator's error to ε/2, which we
/// take relative to the answer's own spread, plus four standard errors
/// of the simulation mean.
double EstimateTolerance(const SpreadEstimate& simulated, double epsilon);

/// |estimate − simulated| within EstimateTolerance.
std::string CheckEstimate(double estimate, const SpreadEstimate& simulated,
                          double epsilon);

/// (1 − 1/e − ε) guarantee of an online answer against a reference
/// answer's spread, each widened by four standard errors of its mean.
std::string CheckApproximation(const SpreadEstimate& answer,
                               const SpreadEstimate& reference,
                               double epsilon);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
